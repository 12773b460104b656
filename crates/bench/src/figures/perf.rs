//! Hot-path optimization scorecard: baseline vs. optimized, measured.
//!
//! This PR-series artifact (not a paper figure) pins the three hot-path
//! overhauls with side-by-side numbers against faithful replicas of the
//! pre-optimization code paths:
//!
//! 1. **Batched secure-deletion punctures** — one `delete_batch` pass
//!    over a tag's `k` Bloom slots vs. `k` independent `delete` calls
//!    (AEAD ops, provider block round-trips, wall-clock).
//! 2. **Fixed-base / multi-scalar exponentiation** — BFE keygen and
//!    encrypt through the precomputed generator table and shared-scalar
//!    batch API vs. the per-slot naive-mult + SEC1-round-trip path.
//! 3. **Parallel HSM fan-out** — fleet provisioning with all cores vs.
//!    the single-worker serial baseline (byte-identical fleets), plus
//!    the epoch + batched cluster-recovery round that now serves
//!    independent HSMs concurrently.
//!
//! Later sections extend the scorecard with cold-start restore (§4),
//! the multi-user recovery throughput engine (§5), and the save-path
//! throughput engine — save storms, streaming epoch certification, and
//! mixed save/recover waves (§6).
//!
//! Every headline number is mirrored to `bench_out/BENCH_perf.json` so
//! the repository's performance trajectory accumulates per commit.
//!
//! Setting the `PERF_QUICK` environment variable shrinks every scale
//! knob (slots, fleet, tags, iterations) so CI can smoke the whole
//! scorecard in seconds; trajectory numbers should come from full runs.

use p256::elliptic_curve::sec1::ToEncodedPoint;
use p256::{NonZeroScalar, ProjectivePoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::Direct;
use safetypin::{Deployment, RecoverManyOptions, RecoverySession, SystemParams};
use safetypin_bfe::{encrypt, keygen, BfeParams};
use safetypin_primitives::elgamal::PublicKey;
use safetypin_seckv::{MemStore, SecureArray};
use safetypin_store::FileOptions;

use crate::report::{secs, Report};
use crate::{time_mean, time_once};

/// Measurement scales; `PERF_QUICK` selects the CI smoke configuration.
struct Scale {
    slots: u64,
    fleet: u64,
    cluster: usize,
    tags: u64,
    keygen_iters: u32,
    enc_iters: u32,
    storm_users: u64,
    /// Concurrency ladder for the `throughput` section (users per storm).
    throughput_users: &'static [u64],
    /// Live insert stream length for the epoch-certification counter.
    epoch_inserts: usize,
    /// Chunk count for the epoch-certification counter.
    epoch_chunks: usize,
}

fn scale() -> Scale {
    if std::env::var_os("PERF_QUICK").is_some() {
        Scale {
            slots: 1 << 8,
            fleet: 8,
            cluster: 8,
            tags: 16,
            keygen_iters: 1,
            enc_iters: 50,
            storm_users: 6,
            throughput_users: &[1, 4, 8],
            epoch_inserts: 256,
            epoch_chunks: 8,
        }
    } else {
        Scale {
            slots: 1 << 12,
            fleet: 64,
            cluster: 40,
            tags: 256,
            keygen_iters: 3,
            enc_iters: 2_000,
            storm_users: 32,
            throughput_users: &[1, 8, 32, 128],
            epoch_inserts: 2048,
            epoch_chunks: 16,
        }
    }
}

/// Regenerates the optimization scorecard.
pub fn run() {
    let scale = scale();
    let mut report = Report::new(
        "perf",
        "hot-path optimizations, baseline vs optimized (measured)",
    );
    if std::env::var_os("PERF_QUICK").is_some() {
        report.line("PERF_QUICK set: smoke-test scales; not trajectory-grade numbers.");
        // Mark the JSON mirror too, so smoke numbers can never be
        // mistaken for (or committed as) trajectory-grade data.
        report.metric("perf_quick", 1.0);
    }
    puncture_batching(&mut report, &scale);
    fixed_base_and_batch_encrypt(&mut report, &scale);
    parallel_fanout(&mut report, &scale);
    cold_start(&mut report, &scale);
    throughput(&mut report, &scale);
    save_storm(&mut report, &scale);
    report.finish();
}

/// Part 1: shared-prefix batched deletion vs. k independent deletes on
/// identically-seeded secret-key arrays.
fn puncture_batching(report: &mut Report, scale: &Scale) {
    let params = BfeParams::new(scale.slots, 4).unwrap();
    let height = (scale.slots as f64).log2() as u32;
    let scalars: Vec<Vec<u8>> = (0..scale.slots).map(|i| i.to_be_bytes().to_vec()).collect();

    // Two identically-seeded arrays standing in for the BFE secret key.
    let mut rng = StdRng::seed_from_u64(0x9e1);
    let mut store_seq = MemStore::new();
    let mut arr_seq = SecureArray::setup(&mut store_seq, &scalars, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(0x9e1);
    let mut store_bat = MemStore::new();
    let mut arr_bat = SecureArray::setup(&mut store_bat, &scalars, &mut rng).unwrap();
    arr_seq.reset_metrics();
    arr_bat.reset_metrics();

    // Puncture `scale.tags` distinct tags each way (k=4 slots per tag).
    let tags: Vec<Vec<u8>> = (0..scale.tags).map(|t| t.to_be_bytes().to_vec()).collect();
    let mut rng_seq = StdRng::seed_from_u64(0x5e9);
    let seq_secs = time_once(|| {
        for tag in &tags {
            for idx in params.indices_for_tag(tag) {
                arr_seq.delete(&mut store_seq, idx, &mut rng_seq).unwrap();
            }
        }
    })
    .1;
    let mut rng_bat = StdRng::seed_from_u64(0x5e9);
    let bat_secs = time_once(|| {
        for tag in &tags {
            let indices = params.indices_for_tag(tag);
            arr_bat
                .delete_batch(&mut store_bat, &indices, &mut rng_bat)
                .unwrap();
        }
    })
    .1;
    let m_seq = arr_seq.metrics();
    let m_bat = arr_bat.metrics();

    report.section(
        format!(
            "1. puncture: k independent deletes vs one delete_batch \
         ({} tags, k = 4, 2^{height} slots)",
            tags.len()
        )
        .as_str(),
    );
    report.table(
        &["path", "aead ops", "blocks r+w", "time", "per tag"],
        &[
            vec![
                "sequential (old)".into(),
                (m_seq.aead_dec_ops + m_seq.aead_enc_ops).to_string(),
                (m_seq.blocks_fetched + m_seq.blocks_written).to_string(),
                secs(seq_secs),
                secs(seq_secs / tags.len() as f64),
            ],
            vec![
                "batched (new)".into(),
                (m_bat.aead_dec_ops + m_bat.aead_enc_ops).to_string(),
                (m_bat.blocks_fetched + m_bat.blocks_written).to_string(),
                secs(bat_secs),
                secs(bat_secs / tags.len() as f64),
            ],
        ],
    );
    let aead_ratio = (m_seq.aead_dec_ops + m_seq.aead_enc_ops) as f64
        / (m_bat.aead_dec_ops + m_bat.aead_enc_ops).max(1) as f64;
    report.line(format!(
        "AEAD-op reduction {aead_ratio:.2}x; the shared upper levels of \
         each tag's 4 paths are decrypted and re-keyed once instead of 4x."
    ));
    report.metric("puncture_tags", tags.len() as f64);
    report.metric(
        "puncture_seq_aead_ops",
        (m_seq.aead_dec_ops + m_seq.aead_enc_ops) as f64,
    );
    report.metric(
        "puncture_batch_aead_ops",
        (m_bat.aead_dec_ops + m_bat.aead_enc_ops) as f64,
    );
    report.metric(
        "puncture_seq_blocks",
        (m_seq.blocks_fetched + m_seq.blocks_written) as f64,
    );
    report.metric(
        "puncture_batch_blocks",
        (m_bat.blocks_fetched + m_bat.blocks_written) as f64,
    );
    report.metric("puncture_seq_s", seq_secs);
    report.metric("puncture_batch_s", bat_secs);

    // Rotation-scale mass deletion (§9.1: rotation triggers once half the
    // slots are gone): deleting every other leaf in one batch touches each
    // of the 2^h - 1 interior nodes exactly once, while sequential deletes
    // pay the full path per leaf. (A real HSM would issue this as a
    // sequence of bounded-size chunks to keep trusted memory constant —
    // each chunk amortizes its shared prefixes the same way; the single
    // batch here measures the aggregate AEAD/round-trip saving.)
    let targets: Vec<u64> = (0..scale.slots / 2).map(|i| 2 * i).collect();
    let mut rng = StdRng::seed_from_u64(0xa11);
    let mut store_seq = MemStore::new();
    let mut arr_seq = SecureArray::setup(&mut store_seq, &scalars, &mut rng).unwrap();
    let mut rng = StdRng::seed_from_u64(0xa11);
    let mut store_bat = MemStore::new();
    let mut arr_bat = SecureArray::setup(&mut store_bat, &scalars, &mut rng).unwrap();
    arr_seq.reset_metrics();
    arr_bat.reset_metrics();

    let mut rng_seq = StdRng::seed_from_u64(0x5ea);
    let half_seq_s = time_once(|| {
        for &i in &targets {
            arr_seq.delete(&mut store_seq, i, &mut rng_seq).unwrap();
        }
    })
    .1;
    let mut rng_bat = StdRng::seed_from_u64(0x5ea);
    let half_bat_s = time_once(|| {
        arr_bat
            .delete_batch(&mut store_bat, &targets, &mut rng_bat)
            .unwrap();
    })
    .1;
    let h_seq = arr_seq.metrics();
    let h_bat = arr_bat.metrics();
    report.section("1b. key retirement: deleting half of all slots (rotation scale)");
    report.table(
        &["path", "aead ops", "blocks r+w", "time"],
        &[
            vec![
                "sequential (old)".into(),
                (h_seq.aead_dec_ops + h_seq.aead_enc_ops).to_string(),
                (h_seq.blocks_fetched + h_seq.blocks_written).to_string(),
                secs(half_seq_s),
            ],
            vec![
                "batched (new)".into(),
                (h_bat.aead_dec_ops + h_bat.aead_enc_ops).to_string(),
                (h_bat.blocks_fetched + h_bat.blocks_written).to_string(),
                secs(half_bat_s),
            ],
        ],
    );
    report.line(format!(
        "mass-deletion AEAD reduction {:.2}x, wall-clock {:.2}x",
        (h_seq.aead_dec_ops + h_seq.aead_enc_ops) as f64
            / (h_bat.aead_dec_ops + h_bat.aead_enc_ops).max(1) as f64,
        half_seq_s / half_bat_s
    ));
    report.metric(
        "mass_delete_seq_aead_ops",
        (h_seq.aead_dec_ops + h_seq.aead_enc_ops) as f64,
    );
    report.metric(
        "mass_delete_batch_aead_ops",
        (h_bat.aead_dec_ops + h_bat.aead_enc_ops) as f64,
    );
    report.metric("mass_delete_seq_s", half_seq_s);
    report.metric("mass_delete_batch_s", half_bat_s);
}

/// Part 2: BFE keygen and encrypt, old per-slot path vs. the fixed-base
/// table + shared-scalar batch API.
fn fixed_base_and_batch_encrypt(report: &mut Report, scale: &Scale) {
    let params = BfeParams::new(scale.slots, 4).unwrap();

    // Faithful replica of the pre-optimization keygen inner loop:
    // naive generator mult plus a SEC1 encode/parse round-trip per slot.
    let keygen_baseline = |rng: &mut StdRng| {
        let mut store = MemStore::new();
        let mut points = Vec::with_capacity(params.slots as usize);
        let mut scalars: Vec<Vec<u8>> = Vec::with_capacity(params.slots as usize);
        for _ in 0..params.slots {
            let x = NonZeroScalar::random(rng);
            let point = ProjectivePoint::GENERATOR * x.as_ref();
            let enc = point.to_affine().to_encoded_point(true);
            points.push(PublicKey::from_sec1(enc.as_bytes()).unwrap());
            scalars.push(x.as_ref().to_bytes().to_vec());
        }
        let arr = SecureArray::setup(&mut store, &scalars, rng).unwrap();
        std::hint::black_box((points, arr));
    };

    let mut rng = StdRng::seed_from_u64(0xb5e);
    // Warm the process-wide generator table outside the timed region —
    // its one-off cost amortizes across the fleet.
    let _ = safetypin_primitives::elgamal::KeyPair::generate(&mut rng);
    let base_s = time_mean(scale.keygen_iters, || keygen_baseline(&mut rng));
    let opt_s = time_mean(scale.keygen_iters, || {
        let mut store = MemStore::new();
        let out = keygen(params, &mut store, &mut rng).unwrap();
        std::hint::black_box(out);
    });

    report.section(
        format!(
            "2. fixed-base table + batch APIs (BFE {}-slot keys)",
            scale.slots
        )
        .as_str(),
    );
    report.table(
        &["operation", "baseline", "optimized", "speedup"],
        &[vec![
            "bfe keygen".into(),
            secs(base_s),
            secs(opt_s),
            format!("{:.2}x", base_s / opt_s),
        ]],
    );
    report.metric("bfe_keygen_baseline_s", base_s);
    report.metric("bfe_keygen_optimized_s", opt_s);

    // Encrypt: the shared-ephemeral-nonce path. The baseline re-parses
    // each slot key from SEC1 and multiplies per slot; the optimized
    // path reads the validated points and uses the shared-scalar batch
    // multiply inside `encrypt`.
    let mut store = MemStore::new();
    let (pk, _sk, _) = keygen(params, &mut store, &mut rng).unwrap();
    let mut rng_b = StdRng::seed_from_u64(0xec0);
    let enc_baseline_s = time_mean(scale.enc_iters, || {
        let r = NonZeroScalar::random(&mut rng_b);
        for idx in pk.params.indices_for_tag(b"perf-tag") {
            let slot = PublicKey::from_sec1(&pk.slot(idx).to_sec1()).unwrap();
            std::hint::black_box(*slot.as_point() * r.as_ref());
        }
    });
    let mut rng_o = StdRng::seed_from_u64(0xec0);
    let enc_optimized_s = time_mean(scale.enc_iters, || {
        let r = NonZeroScalar::random(&mut rng_o);
        let indices = pk.params.indices_for_tag(b"perf-tag");
        let bases: Vec<ProjectivePoint> = indices.iter().map(|&i| *pk.slot(i).as_point()).collect();
        std::hint::black_box(p256::mul_many(&bases, r.as_ref()));
    });
    let mut rng_e = StdRng::seed_from_u64(0xe2e);
    let enc_full_s = time_mean(scale.enc_iters, || {
        std::hint::black_box(encrypt(
            &pk,
            b"perf-tag",
            b"ctx",
            b"share bytes",
            &mut rng_e,
        ));
    });
    report.table(
        &["operation", "baseline", "optimized", "speedup"],
        &[vec![
            "encrypt slot mults (k=4)".into(),
            secs(enc_baseline_s),
            secs(enc_optimized_s),
            format!("{:.2}x", enc_baseline_s / enc_optimized_s),
        ]],
    );
    report.line(format!(
        "full bfe::encrypt (k=4 DEMs): {} per call",
        secs(enc_full_s)
    ));
    report.metric("bfe_encrypt_slot_mults_baseline_s", enc_baseline_s);
    report.metric("bfe_encrypt_slot_mults_optimized_s", enc_optimized_s);
    report.metric("bfe_encrypt_full_s", enc_full_s);
}

/// Part 3: fleet provisioning and the batched rounds, serial worker vs.
/// all cores (the provisioned fleets are byte-identical by construction).
fn parallel_fanout(report: &mut Report, scale: &Scale) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let params = SystemParams::scaled(scale.fleet, scale.cluster, scale.slots).unwrap();

    // Warm up caches / one-off tables with a small fleet so neither timed
    // run pays first-touch costs.
    let mut rng = StdRng::seed_from_u64(0xfa0);
    let _ = Deployment::provision(SystemParams::test_small(4), &mut rng).unwrap();

    let mut rng = StdRng::seed_from_u64(0xfa0);
    let (serial, serial_s) = time_once(|| {
        Deployment::provision_with_workers(params, Box::new(Direct::new()), 1, &mut rng).unwrap()
    });
    drop(serial); // keep the second measurement's memory profile identical
    let mut rng = StdRng::seed_from_u64(0xfa0);
    let (mut parallel, parallel_s) = time_once(|| {
        Deployment::provision_with_workers(params, Box::new(Direct::new()), usize::MAX, &mut rng)
            .unwrap()
    });

    report.section(
        format!(
            "3. parallel HSM fan-out (N = {}, {}-slot keys, {cores} cores)",
            scale.fleet, scale.slots
        )
        .as_str(),
    );
    report.table(
        &["operation", "serial", "parallel", "speedup"],
        &[vec![
            "fleet provisioning".into(),
            secs(serial_s),
            secs(parallel_s),
            format!("{:.2}x", serial_s / parallel_s),
        ]],
    );
    if cores == 1 {
        report.line(
            "this host exposes a single core: the fan-out degenerates to the \
             serial path (identical fleet bytes either way); re-run on a \
             multi-core host to see the per-HSM parallel speedup.",
        );
    }
    report.metric("provision_serial_s", serial_s);
    report.metric("provision_parallel_s", parallel_s);
    report.metric("provision_workers", cores as f64);

    // The epoch + batched cluster recovery round now serve independent
    // HSMs concurrently; record the end-to-end recovery wall-clock for
    // the trajectory (there is no serial knob on the serve path — the
    // outcome is identical by construction, only the wall-clock moves).
    let mut client = parallel.new_client(b"perf-user").unwrap();
    let artifact = client
        .backup(b"271801", b"trajectory", 0, &mut rng)
        .unwrap();
    let (outcome, recover_s) = time_once(|| {
        parallel
            .recover(&client, b"271801", &artifact, &mut rng)
            .unwrap()
    });
    assert_eq!(outcome.message, b"trajectory");
    report.line(format!(
        "end-to-end recovery (epoch + parallel cluster round, host wall-clock): {}",
        secs(recover_s)
    ));
    report.metric("recovery_e2e_s", recover_s);
}

/// Part 4: cold start — restoring a persisted fleet from disk vs.
/// provisioning it from scratch, plus the block-cache hit rate under a
/// recovery storm on the restored (FileStore-backed) fleet.
fn cold_start(report: &mut Report, scale: &Scale) {
    let params = SystemParams::scaled(scale.fleet, scale.cluster, scale.slots).unwrap();
    let dir = std::env::temp_dir().join(format!("safetypin-perf-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Warm provision: key generation for the whole fleet, in memory.
    let mut rng = StdRng::seed_from_u64(0xc01d);
    let (mut deployment, provision_s) =
        time_once(|| Deployment::provision(params, &mut rng).unwrap());

    // Persist (sealed HSM states + checkpointed block files), then drop
    // the whole fleet and restore it from disk. Relaxed durability keeps
    // the numbers about the format, not the host's fsync latency.
    let (_, persist_s) = time_once(|| {
        deployment
            .persist(&dir, FileOptions::relaxed(), &mut rng)
            .unwrap()
    });
    drop(deployment);
    let (restored, restore_s) =
        time_once(|| Deployment::restore_from(&dir, FileOptions::relaxed()).unwrap());
    let (mut restored, _) = restored;

    report.section(
        format!(
            "4. cold start: restore-from-disk vs in-memory provision \
             (N = {}, {}-slot keys)",
            scale.fleet, scale.slots
        )
        .as_str(),
    );
    report.table(
        &["operation", "time", "vs provision"],
        &[
            vec![
                "provision (keygen)".into(),
                secs(provision_s),
                "1.00x".into(),
            ],
            vec![
                "persist to disk".into(),
                secs(persist_s),
                format!("{:.2}x", provision_s / persist_s),
            ],
            vec![
                "restore from disk".into(),
                secs(restore_s),
                format!("{:.2}x", provision_s / restore_s),
            ],
        ],
    );
    report.line(format!(
        "restoring skips all {} per-HSM group exponentiations: {:.1}x \
         faster than re-provisioning",
        scale.fleet * scale.slots,
        provision_s / restore_s
    ));
    report.metric("cold_start_provision_s", provision_s);
    report.metric("cold_start_persist_s", persist_s);
    report.metric("cold_start_restore_s", restore_s);
    report.metric("cold_start_restore_speedup", provision_s / restore_s);

    // Recovery storm on the restored fleet: every share decryption and
    // puncture walks root-to-leaf paths through the on-disk block trees;
    // the LRU absorbs the shared upper levels (within one recovery's
    // k paths, the re-read during puncture, and across users).
    let mut storm_rng = StdRng::seed_from_u64(0x5702);
    let before = restored.datacenter.fleet_store_stats();
    let (_, storm_s) = time_once(|| {
        for u in 0..scale.storm_users {
            let name = format!("storm-user-{u}");
            let mut client = restored.new_client(name.as_bytes()).unwrap();
            let artifact = client
                .backup(b"314159", b"storm payload", 0, &mut storm_rng)
                .unwrap();
            let outcome = restored
                .recover(&client, b"314159", &artifact, &mut storm_rng)
                .unwrap();
            assert_eq!(outcome.message, b"storm payload");
        }
    });
    let after = restored.datacenter.fleet_store_stats();
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    report.line(format!(
        "recovery storm: {} users in {}, {} block reads, LRU hit rate {:.1}% \
         ({} hits / {} misses)",
        scale.storm_users,
        secs(storm_s),
        hits + misses,
        100.0 * hit_rate,
        hits,
        misses
    ));
    report.metric("recovery_storm_users", scale.storm_users as f64);
    report.metric("recovery_storm_s", storm_s);
    report.metric("recovery_storm_cache_hit_rate", hit_rate);
    if std::env::var_os("PERF_QUICK").is_none() {
        // Satellite acceptance: pinning the top secure-array levels in
        // the LRU must lift the storm hit rate above the pre-pinning
        // 55.4% measured on this workload.
        assert!(
            hit_rate > 0.554,
            "storm hit rate {:.1}% did not beat the unpinned 55.4% baseline",
            100.0 * hit_rate
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Part 5: multi-user recovery throughput — recoveries/sec vs
/// concurrency, N waves of one (`Deployment::recover`, one at a time)
/// vs one wave of N (`Deployment::recover_many`: cross-user coalesced
/// envelopes, batched punctures, group-commit durability), plus the
/// fsync-per-recovery and MSM scalar-multiplication counters. Both
/// sides run the same code; only the wave size differs.
fn throughput(report: &mut Report, scale: &Scale) {
    let params = SystemParams::scaled(scale.fleet, scale.cluster, scale.slots).unwrap();
    let base =
        std::env::temp_dir().join(format!("safetypin-perf-throughput-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir_serial = base.join("serial");
    let dir_engine = base.join("engine");

    // One provisioned fleet persisted twice: two independent on-disk
    // twins, so the waves of one and the one wave each mutate their own
    // crash-safe FileStore state (where fsyncs and cache hits are real).
    let mut rng = StdRng::seed_from_u64(0x7410);
    let mut fleet = Deployment::provision(params, &mut rng).unwrap();
    let mut seal_rng = StdRng::seed_from_u64(0x7411);
    fleet
        .persist(&dir_serial, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    fleet
        .persist(&dir_engine, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(fleet);
    let (mut serial, _) = Deployment::restore_from(&dir_serial, FileOptions::relaxed()).unwrap();
    let (mut engine, _) = Deployment::restore_from(&dir_engine, FileOptions::relaxed()).unwrap();

    report.section(
        format!(
            "5. throughput: multi-user recovery, N waves of one vs one wave of N \
             (N = {}, {}-slot keys, FileStore-backed)",
            scale.fleet, scale.slots
        )
        .as_str(),
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut user_counter = 0u64;
    let mut engine_hit_rate_last = 0.0f64;
    for &users in scale.throughput_users {
        // A recovery consumes its log identifier, so every rung needs
        // fresh users.
        let names: Vec<String> = (0..users)
            .map(|_| {
                let name = format!("tp-user-{user_counter}");
                user_counter += 1;
                name
            })
            .collect();

        // Build both worlds' sessions up front so the timed regions
        // hold nothing but recoveries.
        let mut rng_s = StdRng::seed_from_u64(0x7412 ^ users);
        let mut serial_sessions = Vec::with_capacity(names.len());
        for name in &names {
            let mut client = serial.new_client(name.as_bytes()).unwrap();
            let artifact = client
                .backup(b"314159", b"throughput payload", 0, &mut rng_s)
                .unwrap();
            serial_sessions.push((client, artifact));
        }
        let mut rng_e = StdRng::seed_from_u64(0x7412 ^ users);
        let mut engine_sessions = Vec::with_capacity(names.len());
        for name in &names {
            let mut client = engine.new_client(name.as_bytes()).unwrap();
            let artifact = client
                .backup(b"314159", b"throughput payload", 0, &mut rng_e)
                .unwrap();
            engine_sessions.push((client, artifact));
        }

        let serial_store_before = serial.datacenter.fleet_store_stats();
        let engine_store_before = engine.datacenter.fleet_store_stats();

        // --- N waves of one: one epoch + one cluster round per user. ---
        let _ = p256::take_op_counts();
        let (_, serial_secs) = time_once(|| {
            for (client, artifact) in &serial_sessions {
                let outcome = serial
                    .recover(client, b"314159", artifact, &mut rng_s)
                    .unwrap();
                assert_eq!(outcome.message, b"throughput payload");
            }
        });
        let serial_ops = p256::take_op_counts();

        // --- one wave of N: one epoch, one envelope per HSM per
        // direction, cross-user coalesced punctures, one group commit
        // per device. ---
        let (_, engine_secs) = time_once(|| {
            let sessions: Vec<RecoverySession<'_>> = engine_sessions
                .iter()
                .map(|(client, artifact)| RecoverySession {
                    client,
                    pin: b"314159",
                    artifact,
                })
                .collect();
            for outcome in engine.recover_many(&sessions, RecoverManyOptions::default(), &mut rng_e)
            {
                assert_eq!(outcome.unwrap().message, b"throughput payload");
            }
        });
        let engine_ops = p256::take_op_counts();
        let serial_store = serial.datacenter.fleet_store_stats();
        let serial_fsyncs = serial_store.flushes - serial_store_before.flushes;
        let engine_store = engine.datacenter.fleet_store_stats();
        let engine_fsyncs = engine_store.flushes - engine_store_before.flushes;
        let hits = engine_store.cache_hits - engine_store_before.cache_hits;
        let misses = engine_store.cache_misses - engine_store_before.cache_misses;
        engine_hit_rate_last = hits as f64 / (hits + misses).max(1) as f64;

        let serial_rps = users as f64 / serial_secs;
        let engine_rps = users as f64 / engine_secs;
        let recoveries = users as f64;
        rows.push(vec![
            users.to_string(),
            format!("{serial_rps:.1}"),
            format!("{engine_rps:.1}"),
            format!("{:.2}x", engine_rps / serial_rps),
            format!("{:.1}", serial_fsyncs as f64 / recoveries),
            format!("{:.1}", engine_fsyncs as f64 / recoveries),
        ]);
        report.metric(&format!("throughput_serial_rps_{users}"), serial_rps);
        report.metric(&format!("throughput_engine_rps_{users}"), engine_rps);
        report.metric(
            &format!("throughput_speedup_{users}"),
            engine_rps / serial_rps,
        );
        report.metric(
            &format!("throughput_serial_fsyncs_per_recovery_{users}"),
            serial_fsyncs as f64 / recoveries,
        );
        report.metric(
            &format!("throughput_engine_fsyncs_per_recovery_{users}"),
            engine_fsyncs as f64 / recoveries,
        );
        report.metric(
            &format!("throughput_serial_naive_mults_{users}"),
            serial_ops.var_mults as f64,
        );
        report.metric(
            &format!("throughput_engine_msm_terms_{users}"),
            engine_ops.msm_terms as f64,
        );
        report.metric(
            &format!("throughput_engine_msm_calls_{users}"),
            engine_ops.msm_calls as f64,
        );
    }
    report.table(
        &[
            "users",
            "waves of one rec/s",
            "one wave rec/s",
            "speedup",
            "fsync/rec waves of one",
            "fsync/rec one wave",
        ],
        &rows,
    );
    report.line(
        "one wave of N amortizes one epoch + one envelope per HSM per direction + \
         one group-commit fsync per device across every user in the wave; \
         N waves of one pay all three per user.",
    );
    report.line(format!(
        "one-wave storm LRU hit rate (largest rung): {:.1}% — note the wave's \
         shared-prefix batch reads eliminate the redundant upper-level \
         fetches that would have been hits, so its *rate* is not comparable \
         to the waves of one; the absolute read count is what shrinks.",
        100.0 * engine_hit_rate_last
    ));
    report.metric("throughput_engine_hit_rate", engine_hit_rate_last);
    let _ = std::fs::remove_dir_all(&base);
}

/// Part 6: save throughput — provider-side saves/sec and fsyncs/save,
/// N `Datacenter::save_many` waves of one vs one wave of N (one grouped
/// enrollment round, one batched log insertion, one WAL group commit),
/// the streaming epoch-certification hash counter, a mixed save/recover
/// wave, and the waves-of-one ≡ one-wave digest pin on both the
/// `Direct` and `Serialized` transports.
fn save_storm(report: &mut Report, scale: &Scale) {
    use safetypin::authlog::{EpochUpdate, Log};
    use safetypin::primitives::hashes::take_hash_ops;
    use safetypin::proto::{SaveRequest, Serialized, Transport};

    let params = SystemParams::scaled(scale.fleet, scale.cluster, scale.slots).unwrap();
    let base =
        std::env::temp_dir().join(format!("safetypin-perf-savestorm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir_serial = base.join("serial");
    let dir_engine = base.join("engine");

    // On-disk twins again (as in part 5): restoring re-attaches each
    // datacenter's provider-log WAL, so flush counts are real commits.
    let mut rng = StdRng::seed_from_u64(0x5a6e);
    let mut fleet = Deployment::provision(params, &mut rng).unwrap();
    let mut seal_rng = StdRng::seed_from_u64(0x5a6f);
    fleet
        .persist(&dir_serial, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    fleet
        .persist(&dir_engine, FileOptions::relaxed(), &mut seal_rng)
        .unwrap();
    drop(fleet);
    let (mut serial, _) = Deployment::restore_from(&dir_serial, FileOptions::relaxed()).unwrap();
    let (mut engine, _) = Deployment::restore_from(&dir_engine, FileOptions::relaxed()).unwrap();

    report.section(
        format!(
            "6. save storm: provider-side save path, N waves of one vs one wave of N \
             (N = {}, {}-slot keys, FileStore-backed, WAL-attached)",
            scale.fleet, scale.slots
        )
        .as_str(),
    );

    // The blobs are opaque to the provider (phones produce them); fixed
    // synthetic bytes keep the measurement about the save path itself.
    let blob_for = |name: &str| format!("artifact-bytes-for-{name}").into_bytes();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut user_counter = 0u64;
    for &users in scale.throughput_users {
        let waves: Vec<(Vec<u8>, Vec<u8>)> = (0..users)
            .map(|_| {
                let name = format!("sv-user-{user_counter}");
                user_counter += 1;
                (name.as_bytes().to_vec(), blob_for(&name))
            })
            .collect();

        // --- N waves of one: one enrollment-refresh round, one log
        // insertion, one WAL commit per save. ---
        let fsyncs_before = serial.datacenter.log_wal_stats().map_or(0, |s| s.flushes);
        let (_, serial_secs) = time_once(|| {
            for (name, blob) in &waves {
                save_one(&mut serial, name, blob);
            }
        });
        let serial_fsyncs =
            serial.datacenter.log_wal_stats().map_or(0, |s| s.flushes) - fsyncs_before;

        // --- one wave of N: one grouped enrollment round, one batched
        // trie insertion sharing root-to-leaf path work, one group
        // commit. ---
        let saves: Vec<SaveRequest> = waves
            .iter()
            .map(|(name, blob)| SaveRequest {
                username: name.clone(),
                blob: blob.clone(),
            })
            .collect();
        let fsyncs_before = engine.datacenter.log_wal_stats().map_or(0, |s| s.flushes);
        let (outcomes, engine_secs) = time_once(|| engine.datacenter.save_many(&saves).unwrap());
        let engine_fsyncs =
            engine.datacenter.log_wal_stats().map_or(0, |s| s.flushes) - fsyncs_before;
        assert!(
            outcomes.iter().all(|o| o.saved()),
            "a save-wave user was refused"
        );

        // Same users, same blobs, two worlds: the log digests must
        // agree byte for byte (the wave-size pin, Direct leg).
        assert_eq!(
            serial.datacenter.log_digest(),
            engine.datacenter.log_digest(),
            "waves of one and one wave diverged at {users} users"
        );

        let serial_sps = users as f64 / serial_secs.max(1e-9);
        let engine_sps = users as f64 / engine_secs.max(1e-9);
        rows.push(vec![
            users.to_string(),
            format!("{serial_sps:.0}"),
            format!("{engine_sps:.0}"),
            format!("{:.2}x", engine_sps / serial_sps),
            format!("{:.2}", serial_fsyncs as f64 / users as f64),
            format!("{:.2}", engine_fsyncs as f64 / users as f64),
        ]);
        report.metric(&format!("save_serial_sps_{users}"), serial_sps);
        report.metric(&format!("save_engine_sps_{users}"), engine_sps);
        report.metric(&format!("save_speedup_{users}"), engine_sps / serial_sps);
        report.metric(
            &format!("save_serial_fsyncs_per_save_{users}"),
            serial_fsyncs as f64 / users as f64,
        );
        report.metric(
            &format!("save_engine_fsyncs_per_save_{users}"),
            engine_fsyncs as f64 / users as f64,
        );
    }
    report.table(
        &[
            "users",
            "waves of one saves/s",
            "one wave saves/s",
            "speedup",
            "fsync/save waves of one",
            "fsync/save one wave",
        ],
        &rows,
    );
    report.line(
        "one wave of N amortizes one grouped enrollment round, one sorted batch \
         trie insertion (each touched node hashed once per wave), and one \
         WAL group commit across the wave; N waves of one pay all three per save.",
    );

    // --- streaming epoch certification: cutting an epoch under a live
    // insert stream. The baseline replays every chunk (O(insertions x
    // path length) re-hashing); the certified cut reuses the digest
    // marks the log recorded as entries arrived (O(chunks)). ---
    let entry = |i: usize| {
        (
            format!("epoch-id-{i}").into_bytes(),
            format!("epoch-value-{i}").into_bytes(),
        )
    };
    let mut log_base = Log::new();
    let mut log_eng = Log::new();
    for i in 0..scale.epoch_inserts {
        let (id, value) = entry(i);
        log_base.insert(&id, &value).unwrap();
        log_eng.insert(&id, &value).unwrap();
    }
    let _ = take_hash_ops();
    let cut = log_base.cut_epoch(scale.epoch_chunks);
    let baseline_update = EpochUpdate::build(&cut).unwrap();
    let baseline_hashes = take_hash_ops();
    let (cut, chunk_digests) = log_eng.cut_epoch_certified(scale.epoch_chunks);
    let engine_update = EpochUpdate::from_certified(&cut, chunk_digests).unwrap();
    let engine_hashes = take_hash_ops();
    assert_eq!(
        baseline_update.message(),
        engine_update.message(),
        "certified epoch cut diverged from the replaying baseline"
    );
    let per_insert_base = baseline_hashes as f64 / scale.epoch_inserts as f64;
    let per_insert_eng = engine_hashes as f64 / scale.epoch_inserts as f64;
    report.line(format!(
        "epoch cut under a {}-insert stream ({} chunks): {} hashes replaying \
         ({per_insert_base:.2}/insert) vs {} from certified marks \
         ({per_insert_eng:.3}/insert), identical update message",
        scale.epoch_inserts, scale.epoch_chunks, baseline_hashes, engine_hashes
    ));
    report.metric("epoch_cut_inserts", scale.epoch_inserts as f64);
    report.metric("epoch_cut_hashes_per_insert_baseline", per_insert_base);
    report.metric("epoch_cut_hashes_per_insert_engine", per_insert_eng);

    // --- mixed save/recover: a wave of new enrollments lands while an
    // equal wave of existing users recovers. ---
    let mixed = scale.storm_users;
    let mut rng_s = StdRng::seed_from_u64(0x3a1d);
    let mut serial_sessions = Vec::with_capacity(mixed as usize);
    let mut rng_e = StdRng::seed_from_u64(0x3a1d);
    let mut engine_sessions = Vec::with_capacity(mixed as usize);
    for i in 0..mixed {
        let name = format!("mx-old-{i}");
        let mut client = serial.new_client(name.as_bytes()).unwrap();
        let artifact = client
            .backup(b"314159", b"mixed payload", 0, &mut rng_s)
            .unwrap();
        serial_sessions.push((client, artifact));
        let mut client = engine.new_client(name.as_bytes()).unwrap();
        let artifact = client
            .backup(b"314159", b"mixed payload", 0, &mut rng_e)
            .unwrap();
        engine_sessions.push((client, artifact));
    }
    let mixed_saves: Vec<(Vec<u8>, Vec<u8>)> = (0..mixed)
        .map(|i| {
            let name = format!("mx-new-{i}");
            (name.as_bytes().to_vec(), blob_for(&name))
        })
        .collect();

    let (_, mixed_serial_secs) = time_once(|| {
        for ((name, blob), (client, artifact)) in mixed_saves.iter().zip(&serial_sessions) {
            save_one(&mut serial, name, blob);
            let outcome = serial
                .recover(client, b"314159", artifact, &mut rng_s)
                .unwrap();
            assert_eq!(outcome.message, b"mixed payload");
        }
    });
    let (_, mixed_engine_secs) = time_once(|| {
        let saves: Vec<SaveRequest> = mixed_saves
            .iter()
            .map(|(name, blob)| SaveRequest {
                username: name.clone(),
                blob: blob.clone(),
            })
            .collect();
        let outcomes = engine.datacenter.save_many(&saves).unwrap();
        assert!(outcomes.iter().all(|o| o.saved()));
        let sessions: Vec<RecoverySession<'_>> = engine_sessions
            .iter()
            .map(|(client, artifact)| RecoverySession {
                client,
                pin: b"314159",
                artifact,
            })
            .collect();
        for outcome in engine.recover_many(&sessions, RecoverManyOptions::default(), &mut rng_e) {
            assert_eq!(outcome.unwrap().message, b"mixed payload");
        }
    });
    let ops = 2.0 * mixed as f64;
    let mixed_serial_ops = ops / mixed_serial_secs.max(1e-9);
    let mixed_engine_ops = ops / mixed_engine_secs.max(1e-9);
    report.line(format!(
        "mixed wave ({mixed} saves + {mixed} recoveries): {mixed_serial_ops:.1} ops/s \
         interleaved in waves of one vs {mixed_engine_ops:.1} ops/s as one save wave + \
         one recovery wave ({:.2}x)",
        mixed_engine_ops / mixed_serial_ops
    ));
    report.metric("mixed_users", mixed as f64);
    report.metric("mixed_serial_ops_per_sec", mixed_serial_ops);
    report.metric("mixed_engine_ops_per_sec", mixed_engine_ops);
    report.metric("mixed_speedup", mixed_engine_ops / mixed_serial_ops);
    let _ = std::fs::remove_dir_all(&base);

    // --- the waves-of-one ≡ one-wave digest pin, Serialized leg: the on-disk
    // twins above exercised `Direct`; the same wave through full-codec
    // transports must land on the same bytes. ---
    let small = SystemParams::test_small(6);
    let mut digests = Vec::new();
    for make in [
        || Box::new(Direct::new()) as Box<dyn Transport>,
        || Box::new(Serialized::cdc()) as Box<dyn Transport>,
    ] {
        let mut rng = StdRng::seed_from_u64(0xd16);
        let mut ser = Deployment::provision_with_transport(small, make(), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(0xd16);
        let mut eng = Deployment::provision_with_transport(small, make(), &mut rng).unwrap();
        let wave: Vec<SaveRequest> = (0..8)
            .map(|i| SaveRequest {
                username: format!("pin-user-{i}").into_bytes(),
                blob: format!("pin-blob-{i}").into_bytes(),
            })
            .collect();
        for save in &wave {
            save_one(&mut ser, &save.username, &save.blob);
        }
        let outcomes = eng.datacenter.save_many(&wave).unwrap();
        assert!(outcomes.iter().all(|o| o.saved()));
        assert_eq!(
            ser.datacenter.log_digest(),
            eng.datacenter.log_digest(),
            "waves of one and one wave diverged over {}",
            ser.datacenter.transport_name()
        );
        digests.push(ser.datacenter.log_digest());
    }
    assert_eq!(
        digests[0], digests[1],
        "Direct and Serialized transports produced different log digests"
    );
    report.line(
        "digest pin: waves of one and one wave of N land on byte-identical \
         log digests over both the Direct and Serialized transports.",
    );
}

/// Saves one user's blob as a wave of one.
fn save_one<S: safetypin::seckv::BlockStore + Send>(
    deployment: &mut Deployment<S>,
    username: &[u8],
    blob: &[u8],
) {
    let save = safetypin::proto::SaveRequest {
        username: username.to_vec(),
        blob: blob.to_vec(),
    };
    let outcomes = deployment.datacenter.save_many(&[save]).unwrap();
    assert!(outcomes.iter().all(|o| o.saved()), "a save was refused");
}
