//! The workloads: the untimed population, the timed phase (closed
//! loops over one connection, the open-loop `mix` over two), and the
//! closing correctness checks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use safetypin_client::remote::ProviderEndpoint;
use safetypin_proto::{ProviderRequest, ProviderResponse, StatusReport, Tcp, TcpConfig};

use crate::flows::{recover_solo, recover_wave, save_solo, save_wave, Ctx, OpError, Ticket, Turn};
use crate::gen::{mix, MixOp, Plan, Timed};
use crate::session::{Clock, Layer, Session, Span};

/// Everything one pass over a fleet measured.
#[derive(Default)]
pub struct Run {
    /// Per-user save latencies, seconds.
    pub save_lat: Vec<f64>,
    /// Per-user recovery latencies, seconds.
    pub recover_lat: Vec<f64>,
    /// Seconds of the phase the save rate is taken over.
    pub save_secs: f64,
    /// Seconds of the phase the recovery rate is taken over.
    pub recover_secs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Measured operations by kind (attempted).
    pub timed_saves: u64,
    pub timed_recoveries: u64,
    /// Open loop: how late each operation started, seconds.
    pub late: Vec<f64>,
    pub spans: Vec<Span>,
    /// Every blob uploaded, for the read-back sample.
    pub saved: Vec<(usize, Vec<u8>)>,
}

/// The device RNG stream `stream` of a workload seed.
pub fn client_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, 0xC11E_0000 + stream))
}

const POPULATION_STREAM: u64 = 100;
const WRONG_PIN_STREAM: u64 = 101;
const READBACK_STREAM: u64 = 102;

fn fatal(e: OpError) -> String {
    match e {
        OpError::Failed(e) | OpError::Fatal(e) => e,
    }
}

fn check_secret(ctx: &Ctx<'_>, user: usize, plaintext: &[u8]) -> Result<(), String> {
    if plaintext == ctx.users[user].secret.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "recovered plaintext differs from the saved secret of {}",
            String::from_utf8_lossy(&ctx.users[user].name)
        ))
    }
}

/// The set-up population. On `solo-recover` the set-up saves are solo
/// `PutBackup`s, measured like timed operations: their latencies are the
/// run's save figures. Elsewhere they go up, unmeasured, as `SaveBatch`
/// waves.
pub fn populate<E: ProviderEndpoint>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    plan: &Plan,
    wave: usize,
    seed: u64,
    run: &mut Run,
) -> Result<(), String> {
    let mut rng = client_rng(seed, POPULATION_STREAM);
    if plan.population_solo {
        let t0 = s.clock.now();
        for &u in &plan.population {
            let client = s
                .scaffold(|| ctx.fleet.client(&ctx.users[u]))
                .map_err(fatal)?;
            let t = s.clock.now();
            let blob = save_solo(s, ctx, u, client, &mut rng, None)
                .map_err(|e| format!("set-up save failed: {}", fatal(e)))?;
            run.save_lat.push(s.clock.now() - t);
            run.saved.push((u, blob));
        }
        run.save_secs = s.clock.now() - t0;
        run.attempted += plan.population.len() as u64;
        run.timed_saves += plan.population.len() as u64;
    } else {
        for chunk in plan.population.chunks(wave.max(1)) {
            let outcomes = save_wave(s, ctx, chunk, &mut rng)
                .map_err(|e| format!("set-up save wave failed: {}", fatal(e)))?;
            for (&u, outcome) in chunk.iter().zip(outcomes) {
                let blob = outcome.map_err(|e| format!("set-up save refused: {e}"))?;
                run.saved.push((u, blob));
            }
        }
    }
    Ok(())
}

/// Records one operation's outcome; correctness violations abort.
fn settle<T>(run: &mut Run, outcome: Result<T, OpError>) -> Result<Option<T>, String> {
    match outcome {
        Ok(v) => Ok(Some(v)),
        Err(OpError::Failed(e)) => {
            run.failed += 1;
            eprintln!("perfbench: operation failed: {e}");
            Ok(None)
        }
        Err(OpError::Fatal(e)) => Err(e),
    }
}

/// The device RNG stream of timed unit `i` (a solo recovery, a wave
/// cycle or a `mix` operation): per unit, so the requests do not depend
/// on how the timed phase is split up or which connection sends them.
fn unit_rng(seed: u64, i: usize) -> StdRng {
    client_rng(seed, UNIT_STREAMS + i as u64)
}

const UNIT_STREAMS: u64 = 1 << 20;

/// Timed units `units` of a closed-loop plan (`solo-recover`, `wave`)
/// over one connection. A run may take its units in several chunks;
/// the phase seconds accumulate. On `wave` the save rate is taken over
/// the save waves' time and the recovery rate over the recovery waves'.
pub fn timed_closed<E: ProviderEndpoint>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    plan: &Plan,
    seed: u64,
    units: std::ops::Range<usize>,
    run: &mut Run,
) -> Result<(), String> {
    match &plan.timed {
        Timed::Solo(users) => {
            let t0 = s.clock.now();
            for (i, &u) in users.iter().enumerate().take(units.end).skip(units.start) {
                let user = &ctx.users[u];
                let client = s.scaffold(|| ctx.fleet.client(user)).map_err(fatal)?;
                let t = s.clock.now();
                run.attempted += 1;
                run.timed_recoveries += 1;
                let mut rng = unit_rng(seed, i);
                let outcome = recover_solo(s, ctx, u, &user.pin, client, &mut rng, None);
                if let Some(plaintext) = settle(run, outcome)? {
                    check_secret(ctx, u, &plaintext)?;
                    run.recover_lat.push(s.clock.now() - t);
                }
            }
            run.recover_secs += s.clock.now() - t0;
        }
        Timed::Waves(waves) => {
            for (i, (saves, recoveries)) in
                waves.iter().enumerate().take(units.end).skip(units.start)
            {
                let mut rng = unit_rng(seed, i);
                let t = s.clock.now();
                run.attempted += saves.len() as u64;
                run.timed_saves += saves.len() as u64;
                let outcome = save_wave(s, ctx, saves, &mut rng);
                let done = s.clock.now();
                run.save_secs += done - t;
                match outcome {
                    Ok(outcomes) => {
                        for (&u, outcome) in saves.iter().zip(outcomes) {
                            if let Some(blob) = settle(run, outcome.map_err(OpError::Failed))? {
                                run.save_lat.push(done - t);
                                run.saved.push((u, blob));
                            }
                        }
                    }
                    Err(OpError::Failed(e)) => {
                        eprintln!("perfbench: save wave failed: {e}");
                        run.failed += saves.len() as u64;
                    }
                    Err(OpError::Fatal(e)) => return Err(e),
                }
                let t = s.clock.now();
                run.attempted += recoveries.len() as u64;
                run.timed_recoveries += recoveries.len() as u64;
                match recover_wave(s, ctx, recoveries, &mut rng) {
                    Ok(outcomes) => {
                        for (&u, outcome) in recoveries.iter().zip(outcomes) {
                            if let Some((plaintext, at)) =
                                settle(run, outcome.map_err(OpError::Failed))?
                            {
                                check_secret(ctx, u, &plaintext)?;
                                run.recover_lat.push(at - t);
                            }
                        }
                    }
                    Err(OpError::Failed(e)) => {
                        eprintln!("perfbench: recovery wave failed: {e}");
                        run.failed += recoveries.len() as u64;
                    }
                    Err(OpError::Fatal(e)) => return Err(e),
                }
                run.recover_secs += s.clock.now() - t;
            }
        }
        Timed::Mix(_) => return Err("mix is an open loop".to_string()),
    }
    Ok(())
}

/// What one open-loop connection measured.
#[derive(Default)]
struct Part {
    save_lat: Vec<f64>,
    recover_lat: Vec<f64>,
    late: Vec<f64>,
    saved: Vec<(usize, Vec<u8>)>,
    saves: u64,
    recoveries: u64,
    failed: u64,
    end: f64,
    spans: Vec<Span>,
}

/// The open-loop `mix` timed phase: two connections take the operations
/// in due order from one queue, so an operation waits only while both
/// are busy. Each operation is timed from when it was due, so a stall
/// shows in the operations queued behind it.
pub fn timed_mix(
    addr: &str,
    ctx: &Ctx<'_>,
    plan: &Plan,
    seed: u64,
    trace: bool,
    run: &mut Run,
) -> Result<(), String> {
    let Timed::Mix(ops) = &plan.timed else {
        return Err("not a mix plan".to_string());
    };
    let ticket = Ticket::default();
    let next = AtomicUsize::new(0);
    let mut conns = Vec::with_capacity(2);
    for _ in 0..2 {
        conns.push(Tcp::connect(TcpConfig::new(addr)).map_err(|e| format!("connect: {e}"))?);
    }
    let origin = Instant::now();
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, tcp)| {
                let (ticket, next) = (&ticket, &next);
                scope.spawn(move || {
                    let mut s = Session::new(tcp, Clock::wall(origin), Layer::Wire);
                    if trace {
                        s = s.traced(1 + ((c as u32) << 24));
                    }
                    let outcome = mix_worker(&mut s, ctx, ops, seed, ticket, next);
                    if outcome.is_err() {
                        // Release the other connection from its turn.
                        ticket.abort();
                    }
                    outcome.map(|mut part| {
                        part.spans = s.take_spans();
                        part
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("mix connection panicked".to_string()))
            })
            .collect::<Vec<_>>()
    });
    let mut end: f64 = 0.0;
    for part in parts {
        let part = part?;
        run.save_lat.extend(part.save_lat);
        run.recover_lat.extend(part.recover_lat);
        run.late.extend(part.late);
        run.saved.extend(part.saved);
        run.timed_saves += part.saves;
        run.timed_recoveries += part.recoveries;
        run.attempted += part.saves + part.recoveries;
        run.failed += part.failed;
        run.spans.extend(part.spans);
        end = end.max(part.end);
    }
    run.save_secs = end;
    run.recover_secs = end;
    Ok(())
}

fn mix_worker(
    s: &mut Session<Tcp>,
    ctx: &Ctx<'_>,
    ops: &[MixOp],
    seed: u64,
    ticket: &Ticket,
    next: &AtomicUsize,
) -> Result<Part, String> {
    let mut part = Part::default();
    while let Some(op) = ops.get(next.fetch_add(1, Ordering::SeqCst)) {
        if ticket.aborted() {
            return Err("the other connection failed".to_string());
        }
        let user = &ctx.users[op.user];
        // The device is built before its operation is due; any part of
        // the build that runs past the due time is left out of the
        // operation's latency.
        let built = s.clock.now();
        let client = ctx.fleet.client(user).map_err(fatal)?;
        let excluded = (s.clock.now() - built.max(op.due)).max(0.0);
        let wait = op.due - s.clock.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        part.late.push((s.clock.now() - op.due - excluded).max(0.0));
        let mut rng = unit_rng(seed, op.seq);
        let mut turn = Turn::new(ticket, op.seq);
        let outcome = if op.recover {
            part.recoveries += 1;
            recover_solo(
                s,
                ctx,
                op.user,
                &user.pin,
                client,
                &mut rng,
                Some(&mut turn),
            )
        } else {
            part.saves += 1;
            save_solo(s, ctx, op.user, client, &mut rng, Some(&mut turn))
        };
        drop(turn);
        let latency = s.clock.now() - op.due - excluded;
        match outcome {
            Ok(bytes) if op.recover => {
                check_secret(ctx, op.user, &bytes)?;
                part.recover_lat.push(latency);
            }
            Ok(blob) => {
                part.save_lat.push(latency);
                part.saved.push((op.user, blob));
            }
            Err(OpError::Failed(e)) => {
                eprintln!("perfbench: operation failed: {e}");
                part.failed += 1;
            }
            Err(OpError::Fatal(e)) => return Err(e),
        }
    }
    part.end = s.clock.now();
    Ok(part)
}

/// The `mix` operations replayed one at a time in due order, each with
/// its own device stream as over the wire (the in-process half of the
/// traced run).
pub fn replay_mix<E: ProviderEndpoint>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    plan: &Plan,
    seed: u64,
    run: &mut Run,
) -> Result<(), String> {
    let Timed::Mix(ops) = &plan.timed else {
        return Err("not a mix plan".to_string());
    };
    for op in ops {
        let user = &ctx.users[op.user];
        let client = s.scaffold(|| ctx.fleet.client(user)).map_err(fatal)?;
        let mut rng = unit_rng(seed, op.seq);
        run.attempted += 1;
        if op.recover {
            run.timed_recoveries += 1;
            let outcome = recover_solo(s, ctx, op.user, &user.pin, client, &mut rng, None);
            if let Some(plaintext) = settle(run, outcome)? {
                check_secret(ctx, op.user, &plaintext)?;
            }
        } else {
            run.timed_saves += 1;
            let outcome = save_solo(s, ctx, op.user, client, &mut rng, None);
            settle(run, outcome)?;
        }
    }
    Ok(())
}

/// The checks that close every pass:
/// * a wrong-PIN attempt against a saved user who has not recovered
///   fails to reconstruct and is logged exactly once;
/// * a seeded sample of saves reads back byte-identical;
/// * the provider's log and epoch counts grew by exactly the
///   acknowledged saves, log insertions and epochs.
pub fn close<E: ProviderEndpoint>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    wrong_pin_user: usize,
    seed: u64,
    readback: usize,
    run: &Run,
    initial: &StatusReport,
) -> Result<(), String> {
    let u = wrong_pin_user;
    let user = &ctx.users[u];
    let client = ctx.fleet.client(user).map_err(fatal)?;
    let inserts = ctx.ledger.inserts.load(Ordering::SeqCst);
    let mut rng = client_rng(seed, WRONG_PIN_STREAM);
    match recover_solo(s, ctx, u, &user.wrong_pin(), client, &mut rng, None) {
        Ok(_) => return Err("a wrong-PIN attempt reconstructed a secret".to_string()),
        Err(OpError::Fatal(e)) => return Err(e),
        Err(OpError::Failed(_)) => {}
    }
    if ctx.ledger.inserts.load(Ordering::SeqCst) != inserts + 1 {
        return Err("the wrong-PIN attempt was not logged".to_string());
    }

    let mut sample: Vec<&(usize, Vec<u8>)> = run.saved.iter().collect();
    sample.shuffle(&mut client_rng(seed, READBACK_STREAM));
    for (u, blob) in sample.into_iter().take(readback) {
        let username = ctx.users[*u].name.clone();
        match s.call(ProviderRequest::FetchBackup { username }) {
            Ok(ProviderResponse::Backup(Some(stored))) if stored == *blob => {}
            Ok(ProviderResponse::Backup(Some(_))) => {
                return Err("a saved backup read back different bytes".to_string())
            }
            Ok(_) => return Err("a saved backup did not read back".to_string()),
            Err(e) => return Err(format!("read-back: {e}")),
        }
    }

    let now = crate::daemon::status(s)?;
    let logged = now.log_entries - initial.log_entries;
    let epochs = now.epoch_count - initial.epoch_count;
    if logged != ctx.ledger.log_entries() {
        return Err(format!(
            "the log grew by {logged} entries; the generator had {} acknowledged",
            ctx.ledger.log_entries()
        ));
    }
    if epochs != ctx.ledger.epochs() {
        return Err(format!(
            "{epochs} epochs were certified; the generator ran {}",
            ctx.ledger.epochs()
        ));
    }
    Ok(())
}
