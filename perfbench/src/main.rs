//! `perfbench` — the repository benchmark.
//!
//! Runs one workload (`solo-recover`, `wave` or `mix`) against a freshly
//! provisioned `safetypind` child process, driving it through the real
//! client flows over TCP, and prints the result as one JSON line:
//!
//! * `--trace 0`: the end-to-end metrics (client clock, tracing off);
//! * `--trace 1`: the per-layer budget. The same operations run once
//!   untraced and once traced over the wire, scraping the daemon's
//!   metrics around the timed phase, then once more in process through
//!   `Deployment::handle` with a timing transport under the provider.
//!
//! Every run checks its outputs (recovered secrets, read-back blobs,
//! exactly-once logging, a failing wrong-PIN attempt) and exits non-zero
//! without a result line if any check fails. `perfbench/run.py` builds
//! this binary and `safetypind` and supplies the fleet shape and rates
//! from `perfbench/config.json`.

mod daemon;
mod drive;
mod flows;
mod gen;
mod inproc;
mod layers;
mod session;
mod stats;

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicU32;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{DeploymentBuilder, SystemParams};
use safetypin_proto::{MetricsReport, ProtoError, ProviderRequest, Tcp, TcpConfig, TransportStats};
use safetypin_seckv::StoreStats;
use safetypin_store::FileOptions;

use crate::daemon::{Daemon, Shape};
use crate::drive::Run;
use crate::flows::{Ctx, Fleet, Ledger, Punctures};
use crate::gen::{Counts, Plan, Timed, Workload};
use crate::inproc::{RoundLog, TimingTransport};
use crate::layers::{Budget, Inproc};
use crate::session::{Clock, Layer, Session, Span};
use crate::stats::{num, quote, summarize, Obj};

/// The largest unattributed share of operation time a traced run may
/// leave (`budget.residual_share`, `budget.inproc_residual_share`); a
/// run above it is reported `correct: false`.
const RESIDUAL_BOUND: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work_dir: PathBuf,
    shape: Shape,
    wave_size: usize,
    solo_per_s: f64,
    wave_cycles_per_s: f64,
    mix_save_per_s: f64,
    mix_recover_per_s: f64,
    setups: usize,
    readback: usize,
    commit: String,
    spans: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload solo-recover|wave|mix --seed N --seconds S \
--trace 0|1 --daemon PATH --work-dir DIR --fleet N CLUSTER SLOTS --provision-seed S \
--wave-size W --solo-per-s R --wave-cycles-per-s R --mix-save-per-s R --mix-recover-per-s R \
--setups K --readback K --commit ID [--spans FILE]
(perfbench/run.py supplies every knob from perfbench/config.json)";

/// `--flag value…` pairs; `--fleet` takes three values, every other
/// flag one.
struct Flags(HashMap<String, Vec<String>>);

impl Flags {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut flags = HashMap::new();
        let mut i = 0;
        while let Some(flag) = argv.get(i) {
            let arity = if flag == "--fleet" { 3 } else { 1 };
            let values = argv
                .get(i + 1..i + 1 + arity)
                .ok_or_else(|| format!("{flag} needs {arity} value(s)"))?;
            flags.insert(flag.clone(), values.to_vec());
            i += 1 + arity;
        }
        Ok(Self(flags))
    }

    fn values(&mut self, flag: &str) -> Result<Vec<String>, String> {
        self.0
            .remove(flag)
            .ok_or_else(|| format!("{flag} is required"))
    }

    fn get<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let values = self.values(flag)?;
        parse(flag, &values[0])
    }
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut f = Flags::parse()?;
    let name: String = f.get("--workload")?;
    let fleet = f.values("--fleet")?;
    let args = Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: f.get("--seed")?,
        seconds: f.get("--seconds")?,
        trace: f.get::<u8>("--trace")? != 0,
        daemon: f.get("--daemon")?,
        work_dir: f.get("--work-dir")?,
        shape: Shape {
            total: parse("--fleet", &fleet[0])?,
            cluster: parse("--fleet", &fleet[1])?,
            slots: parse("--fleet", &fleet[2])?,
            seed: f.get("--provision-seed")?,
        },
        wave_size: f.get("--wave-size")?,
        solo_per_s: f.get("--solo-per-s")?,
        wave_cycles_per_s: f.get("--wave-cycles-per-s")?,
        mix_save_per_s: f.get("--mix-save-per-s")?,
        mix_recover_per_s: f.get("--mix-recover-per-s")?,
        setups: f.get("--setups")?,
        readback: f.get("--readback")?,
        commit: f.get("--commit")?,
        spans: f.0.remove("--spans").map(|v| PathBuf::from(&v[0])),
    };
    if let Some(flag) = f.0.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if args.seconds <= 0.0 || args.setups == 0 || args.wave_size == 0 {
        return Err("--seconds, --setups and --wave-size must be positive".to_string());
    }
    Ok(args)
}

impl Args {
    /// Fixed operation counts: the rates times the run length, so both
    /// sides of a comparison take the same number of samples.
    fn counts(&self) -> Counts {
        let n = |rate: f64| ((rate * self.seconds).round() as usize).max(1);
        Counts {
            solo_recoveries: n(self.solo_per_s),
            wave_size: self.wave_size,
            wave_cycles: n(self.wave_cycles_per_s),
            mix_saves: n(self.mix_save_per_s),
            mix_recoveries: n(self.mix_recover_per_s),
            mix_seconds: self.seconds,
        }
    }

    fn params(&self) -> Result<SystemParams, String> {
        SystemParams::scaled(self.shape.total, self.shape.cluster, self.shape.slots)
            .map_err(|e| format!("fleet shape: {e}"))
    }
}

/// One pass over a live daemon.
struct Pass {
    setup_secs: f64,
    run: Run,
    rss_mb: f64,
    metrics: Option<(MetricsReport, MetricsReport)>,
    busiest_hsm: u64,
    /// CPU seconds the daemon and this process spent in the timed phase.
    daemon_cpu: f64,
    client_cpu: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No timed phase: a set-up time sample (and, on `solo-recover`,
    /// set-up save latencies), still closed by the checks.
    SetupOnly,
    Untraced,
    Traced,
}

fn connect(addr: &str) -> Result<Tcp, String> {
    Tcp::connect(TcpConfig::new(addr)).map_err(|e| format!("connect: {e}"))
}

/// Runs one pass. The timed phase is taken in `breaks + 1` chunks with
/// `between` run at each break, so that the measurement of one run is
/// spread over the whole run rather than one stretch of the host's time.
fn wire_pass(
    args: &Args,
    plan: &Plan,
    tag: &str,
    mode: Mode,
    breaks: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let params = args.params()?;
    let dir = args.work_dir.join(format!("store-{tag}"));
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&args.daemon, &dir, &args.shape)?;
    let mut s = Session::new(
        connect(&daemon.addr)?,
        Clock::new(Instant::now()),
        Layer::Wire,
    );
    let fleet = Fleet::fetch(&mut s, params.bfe.max_punctures())?;
    let initial = daemon::status(&mut s)?;
    let ledger = Ledger::default();
    let punctures = Punctures::new(params.total(), fleet.max_punctures);
    let ctx = Ctx {
        fleet: &fleet,
        users: &plan.users,
        ledger: &ledger,
        punctures: &punctures,
    };
    daemon::settle(&dir)?;
    let traced = mode == Mode::Traced;
    let cpu =
        || -> Result<(f64, f64), String> { Ok((daemon.cpu_secs()?, daemon::cpu_secs("self")?)) };
    // Tracing and the daemon scrape cover every measured operation. On
    // `solo-recover` the set-up saves are measured too (they give the
    // run's save figures), so measuring starts before them.
    let measure = |s: &mut Session<Tcp>| -> Result<Option<MetricsReport>, String> {
        let before = if traced {
            Some(daemon::metrics(s)?)
        } else {
            None
        };
        s.set_trace(traced);
        Ok(before)
    };
    let measured_setup = plan.population_solo && mode != Mode::SetupOnly;
    let mut before = None;
    if measured_setup {
        before = measure(&mut s)?;
    }
    let setup_cpu0 = cpu()?;
    let mut run = Run::default();
    drive::populate(&mut s, &ctx, plan, args.wave_size, args.seed, &mut run)?;
    let setup_secs = t0.elapsed().as_secs_f64();
    let (mut daemon_cpu, mut client_cpu) = (0.0, 0.0);
    if measured_setup {
        let cpu1 = cpu()?;
        daemon_cpu += cpu1.0 - setup_cpu0.0;
        client_cpu += cpu1.1 - setup_cpu0.1;
    } else {
        before = measure(&mut s)?;
    }
    let mut timed = |s: &mut Session<Tcp>, run: &mut Run, k: usize| -> Result<(), String> {
        let cpu0 = cpu()?;
        if matches!(plan.timed, Timed::Mix(_)) {
            // An open loop runs its schedule in one piece.
            if k == 0 {
                drive::timed_mix(&daemon.addr, &ctx, plan, args.seed, traced, run)?;
            }
        } else {
            let units = plan.timed_units();
            let chunk = units * k / (breaks + 1)..units * (k + 1) / (breaks + 1);
            drive::timed_closed(s, &ctx, plan, args.seed, chunk, run)?;
        }
        let cpu1 = cpu()?;
        daemon_cpu += cpu1.0 - cpu0.0;
        client_cpu += cpu1.1 - cpu0.1;
        Ok(())
    };
    for k in (0..=breaks).filter(|_| mode != Mode::SetupOnly) {
        if k > 0 {
            between()?;
            // The idle connection may have met the daemon's socket
            // timeout meanwhile; a failed status call drops it, and the
            // retry dials afresh.
            if daemon::status(&mut s).is_err() {
                daemon::status(&mut s)?;
            }
        }
        timed(&mut s, &mut run, k)?;
    }
    s.set_trace(false);
    run.spans.extend(s.take_spans());
    let metrics = match before {
        Some(before) => Some((before, daemon::metrics(&mut s)?)),
        None => None,
    };
    // Without a timed phase, the last set-up user has saved and not
    // recovered.
    let wrong_pin_user = match mode {
        Mode::SetupOnly => plan
            .population
            .last()
            .copied()
            .unwrap_or(plan.wrong_pin_user),
        _ => plan.wrong_pin_user,
    };
    drive::close(
        &mut s,
        &ctx,
        wrong_pin_user,
        args.seed,
        args.readback,
        &run,
        &initial,
    )?;
    let rss_mb = daemon.peak_rss_mb()?;
    drop(s);
    daemon.stop();
    Ok(Pass {
        setup_secs,
        run,
        rss_mb,
        metrics,
        busiest_hsm: punctures.busiest(),
        daemon_cpu,
        client_cpu,
    })
}

/// The in-process half of the traced run: the same operations, one at
/// a time, through `Deployment::handle` on a deployment opened at the
/// same shape, seed and durability as the daemon's.
fn inproc_pass(args: &Args, plan: &Plan) -> Result<Inproc, String> {
    let params = args.params()?;
    let dir = args.work_dir.join("store-inproc");
    if dir.exists() {
        return Err(format!("store directory {} already exists", dir.display()));
    }
    let current = Arc::new(AtomicU32::new(0));
    let rounds: RoundLog = Arc::new(Mutex::new(Vec::new()));
    // The daemon seeds one RNG from the provisioning seed, opens the
    // fleet with it and serves every request from the same stream.
    let mut rng = StdRng::seed_from_u64(args.shape.seed);
    let (deployment, _) = DeploymentBuilder::new(params)
        .store_dir(&dir)
        .file_options(FileOptions::default())
        .transport(Box::new(TimingTransport::new(
            Arc::clone(&current),
            Arc::clone(&rounds),
        )))
        .open(&mut rng)
        .map_err(|e| format!("opening the in-process deployment: {e}"))?;
    let deployment = RefCell::new(deployment);
    let outcome = (|| {
        let handle = |request: ProviderRequest| -> Result<_, ProtoError> {
            Ok(deployment.borrow_mut().handle(request, &mut rng))
        };
        let mut s = Session::new(handle, Clock::new(Instant::now()), Layer::Provider);
        let fleet = Fleet::fetch(&mut s, params.bfe.max_punctures())?;
        let ledger = Ledger::default();
        let punctures = Punctures::new(params.total(), fleet.max_punctures);
        let ctx = Ctx {
            fleet: &fleet,
            users: &plan.users,
            ledger: &ledger,
            punctures: &punctures,
        };
        daemon::settle(&dir)?;
        let mut run = Run::default();
        // As over the wire, `solo-recover`'s set-up saves are measured.
        if !plan.population_solo {
            drive::populate(&mut s, &ctx, plan, args.wave_size, args.seed, &mut run)?;
        }
        let mut s = s.traced(1).counting(Arc::clone(&current));
        rounds.lock().unwrap_or_else(|e| e.into_inner()).clear();
        let store0 = deployment.borrow().datacenter.fleet_store_stats();
        let transport0 = deployment.borrow().datacenter.transport_stats();
        if plan.population_solo {
            drive::populate(&mut s, &ctx, plan, args.wave_size, args.seed, &mut run)?;
        }
        if matches!(plan.timed, Timed::Mix(_)) {
            drive::replay_mix(&mut s, &ctx, plan, args.seed, &mut run)?;
        } else {
            let units = 0..plan.timed_units();
            drive::timed_closed(&mut s, &ctx, plan, args.seed, units, &mut run)?;
        }
        let store1 = deployment.borrow().datacenter.fleet_store_stats();
        let transport1 = deployment.borrow().datacenter.transport_stats();
        // The deltas of the fields the budget reads.
        let store = StoreStats {
            reads: store1.reads - store0.reads,
            writes: store1.writes - store0.writes,
            cache_hits: store1.cache_hits - store0.cache_hits,
            cache_misses: store1.cache_misses - store0.cache_misses,
            flushes: store1.flushes - store0.flushes,
            ..StoreStats::default()
        };
        let transport = TransportStats {
            envelopes: transport1.envelopes - transport0.envelopes,
            messages: transport1.messages - transport0.messages,
            ..TransportStats::default()
        };
        let work = s.work;
        let spans = s.take_spans();
        let rounds = std::mem::take(&mut *rounds.lock().unwrap_or_else(|e| e.into_inner()));
        Ok(Inproc {
            spans,
            rounds,
            store,
            transport,
            work,
        })
    })();
    drop(deployment);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn user_latencies(run: &Run) -> Vec<f64> {
    run.save_lat
        .iter()
        .chain(&run.recover_lat)
        .copied()
        .collect()
}

fn context(args: &Args, plan: &Plan) -> String {
    let shape = &args.shape;
    Obj::new()
        .str("workload", args.workload.name())
        .int("workload_seed", args.seed)
        .int("provision_seed", shape.seed)
        .int(
            "host_cores",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .raw(
            "fleet",
            Obj::new()
                .int("hsms", shape.total)
                .int("cluster", shape.cluster as u64)
                .int("bfe_slots", shape.slots)
                .render(),
        )
        // The daemon runs with its default durability, Strict.
        .str("durability", "strict")
        .int("wave_size", args.wave_size as u64)
        .num("wave_cycles_per_s", args.wave_cycles_per_s)
        .num("solo_recoveries_per_s", args.solo_per_s)
        .num("mix_save_per_s", args.mix_save_per_s)
        .num("mix_recover_per_s", args.mix_recover_per_s)
        .num("seconds", args.seconds)
        .int("setups", args.setups as u64)
        .int("recovery_attempts", plan.recovery_attempts() as u64)
        .str("commit", &args.commit)
        .render()
}

fn metric(value: f64, unit: &str) -> String {
    Obj::new().num("value", value).str("unit", unit).render()
}

fn result_line(correct: bool, run: &Run, metrics: &[(String, f64, &str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| format!("{}: {}", quote(name), metric(*value, unit)))
        .collect::<Vec<_>>()
        .join(", ");
    Obj::new()
        .bool("correct", correct)
        .int("attempted", run.attempted.max(1))
        .int("failed", run.failed)
        .raw("metrics", format!("{{{body}}}"))
        .render()
}

fn end_to_end(args: &Args, plan: &Plan) -> Result<String, String> {
    // The extra set-ups run between chunks of the live pass's timed
    // phase, while its daemon idles.
    let mut extra: Vec<Pass> = Vec::with_capacity(args.setups);
    let mut setup = || -> Result<(), String> {
        let tag = format!("setup-{}", extra.len());
        extra.push(wire_pass(
            args,
            plan,
            &tag,
            Mode::SetupOnly,
            0,
            &mut || Ok(()),
        )?);
        Ok(())
    };
    let mut pass = wire_pass(
        args,
        plan,
        "live",
        Mode::Untraced,
        args.setups - 1,
        &mut setup,
    )?;
    let mut setups = vec![pass.setup_secs];
    for other in extra {
        setups.push(other.setup_secs);
        // Timed set-up saves (solo-recover's save figures) count from
        // every fleet, so they too spread over the whole run.
        pass.run.save_lat.extend(other.run.save_lat);
        pass.run.save_secs += other.run.save_secs;
        pass.run.attempted += other.run.attempted;
        pass.run.failed += other.run.failed;
    }
    let run = &pass.run;
    let saves = summarize(&run.save_lat);
    let recoveries = summarize(&run.recover_lat);
    let ops = (run.timed_saves + run.timed_recoveries) as f64;
    let metrics = vec![
        ("setup_s".to_string(), stats::percentile(&setups, 0.5), "s"),
        (
            "recover_per_s".to_string(),
            recoveries.samples as f64 / run.recover_secs.max(1e-9),
            "1/s",
        ),
        ("recover_p50_ms".to_string(), recoveries.p50 * 1e3, "ms"),
        (
            "save_per_s".to_string(),
            saves.samples as f64 / run.save_secs.max(1e-9),
            "1/s",
        ),
        ("save_p50_ms".to_string(), saves.p50 * 1e3, "ms"),
        (
            "daemon_cpu_ms_per_op".to_string(),
            pass.daemon_cpu * 1e3 / ops.max(1.0),
            "ms",
        ),
        ("daemon_rss_mb".to_string(), pass.rss_mb, "MB"),
    ];
    // The tails are reported with the percentile and sample count they
    // rest on; on a shared 2-vCPU host they move too much between runs
    // to gate on, so they stay out of the result line.
    let tail = |summary: &stats::Summary| {
        Obj::new()
            .num("value", summary.tail * 1e3)
            .str("unit", "ms")
            .num("percentile", summary.tail_q * 100.0)
            .int("samples", summary.samples as u64)
            .render()
    };
    let setups = setups.iter().map(|v| num(*v)).collect::<Vec<_>>();
    let tails = Obj::new()
        .raw("recover_tail_ms", tail(&recoveries))
        .raw("save_tail_ms", tail(&saves))
        .raw("setup_s", format!("[{}]", setups.join(", ")))
        .int("busiest_hsm_punctures", pass.busiest_hsm)
        .num("client_cpu_s", pass.client_cpu);
    println!("# samples {}", tails.render());
    Ok(result_line(true, run, &metrics))
}

/// Writes the traced run's spans, one JSON object per line.
fn write_spans(path: &std::path::Path, spans: &[Span], inproc: &[Span]) {
    let mut text = String::new();
    for (part, spans) in [("wire", spans), ("inproc", inproc)] {
        for s in spans {
            text.push_str(
                &Obj::new()
                    .str("part", part)
                    .int("id", s.id as u64)
                    .int("parent", s.parent as u64)
                    .int("op", s.op as u64)
                    .str("name", s.name)
                    .num("start_s", s.start)
                    .num("end_s", s.end)
                    .render(),
            );
            text.push('\n');
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    } else {
        println!("# spans written to {}", path.display());
    }
}

fn per_layer(args: &Args, plan: &Plan) -> Result<String, String> {
    // The in-process pass goes first: a process's first pass runs
    // measurably slower, and the two wire passes must be on equal
    // footing for `trace.overhead_ratio`.
    let inproc = inproc_pass(args, plan)?;
    let untraced = wire_pass(args, plan, "untraced", Mode::Untraced, 0, &mut || Ok(()))?;
    let traced = wire_pass(args, plan, "traced", Mode::Traced, 0, &mut || Ok(()))?;
    let (before, after) = traced
        .metrics
        .as_ref()
        .ok_or("the traced pass scraped no metrics")?;
    let run = &traced.run;
    let metrics = layers::budget(&Budget {
        spans: &run.spans,
        saves: run.timed_saves as f64,
        recoveries: run.timed_recoveries as f64,
        before,
        after,
        late: &run.late,
        attempted: run.attempted,
        failed: run.failed,
        untraced_mean: mean(&user_latencies(&untraced.run)),
        traced_mean: mean(&user_latencies(run)),
        inproc: &inproc,
    });
    if let Some(path) = &args.spans {
        write_spans(path, &run.spans, &inproc.spans);
    }
    let mut correct = true;
    for name in ["budget.residual_share", "budget.inproc_residual_share"] {
        let value = metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::INFINITY, |m| m.1);
        if value > RESIDUAL_BOUND {
            eprintln!("perfbench: {name} = {value:.4} exceeds its bound {RESIDUAL_BOUND}");
            correct = false;
        }
    }
    Ok(result_line(correct, run, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::generate(args.workload, args.seed, &args.counts());
    // Refuse any configuration whose busiest HSM could pass its keys'
    // rotation point within one run: every attempt punctures each of its
    // cluster's HSMs once, so the attempt count bounds any one HSM.
    let max_punctures = match args.params() {
        Ok(params) => params.bfe.max_punctures(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if plan.recovery_attempts() as u64 > max_punctures {
        eprintln!(
            "perfbench: {} recovery attempts could carry an HSM past its rotation point \
             ({max_punctures} punctures); shorten the run or lower the rates",
            plan.recovery_attempts()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    println!("# context {}", context(&args, &plan));
    let outcome = if args.trace {
        per_layer(&args, &plan)
    } else {
        end_to_end(&args, &plan)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
