//! The over-the-wire load generator.
//!
//! [`run`] drives a running `safetypind` through the full client
//! protocol — no shortcuts through in-process state — in four phases:
//!
//! 1. **save**: every user backs up a distinct secret under a distinct
//!    PIN and uploads the artifact, fanned out over
//!    [`LoadOptions::threads`] connections;
//!    1b. **save storm**: a second population of the same size saves
//!    in one [`ProviderRequest::SaveBatch`] frame — one grouped
//!    enrollment refresh and one group-commit flush on the provider
//!    log for the whole wave — measuring the save-path engine over
//!    the socket against phase 1's serial rate;
//! 2. **solo recover**: half the users run the individual Figure 3
//!    recovery ([`remote::recover`]), again over concurrent
//!    connections. The log-to-recover critical section is serialized
//!    by a client-side lock — an inclusion proof must be used against
//!    the epoch that produced it, and the daemon serializes fleet work
//!    anyway, so the measured rate is the honest end-to-end one;
//! 3. **batch wave**: the other half recovers in one
//!    [`ProviderRequest::RecoverBatch`] wave — one epoch, one frame of
//!    per-user request rounds — measuring the multi-user engine's
//!    throughput over the socket.
//!
//! Every recovered plaintext is checked against the secret that was
//! saved; a mismatch is an error, not a statistic. The resulting
//! [`LoadReport`] renders `wire_*` metrics for
//! [`perf::merge_metrics`](crate::perf::merge_metrics).

use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::lhe::LheParams;
use safetypin_client::remote::{self, RemoteError};
use safetypin_client::{Client, ClientError};
use safetypin_proto::tcp::{Tcp, TcpConfig};
use safetypin_proto::{
    codes, ErrorReply, HsmResponse, ProviderRequest, ProviderResponse, SaveRequest,
};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// The daemon address (`host:port`).
    pub addr: String,
    /// Total users (half recover solo, half in the batch wave).
    pub users: usize,
    /// Concurrent connections for the save and solo-recover phases.
    pub threads: usize,
}

impl LoadOptions {
    /// Defaults: 24 users over 4 connections.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            users: 24,
            threads: 4,
        }
    }

    /// Quick mode (CI): 6 users over 2 connections.
    pub fn quick(mut self) -> Self {
        self.users = 6;
        self.threads = 2;
        self
    }
}

/// Measured outcomes of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Users exercised.
    pub users: usize,
    /// Backups saved (phase 1) and the phase's wall-clock seconds.
    pub saves: usize,
    /// Wall-clock seconds of the save phase.
    pub save_secs: f64,
    /// Users saved by the one-frame save storm (phase 1b).
    pub wave_saves: usize,
    /// Wall-clock seconds of the save storm.
    pub wave_save_secs: f64,
    /// Individual recoveries completed (phase 2).
    pub solo_recoveries: usize,
    /// Wall-clock seconds of the solo-recover phase.
    pub recover_secs: f64,
    /// Users recovered by the batch wave (phase 3).
    pub wave_recoveries: usize,
    /// Wall-clock seconds of the batch wave.
    pub wave_secs: f64,
    /// Per-save wall-clock microseconds (phase 1, one sample per user).
    pub save_samples_us: Vec<u64>,
    /// Per-recovery wall-clock microseconds (phase 2, one per solo user).
    pub recover_samples_us: Vec<u64>,
    /// Selected series scraped from the daemon's telemetry registry
    /// after the storm (`ProviderRequest::Metrics`), already rendered
    /// as `BENCH_perf.json` metric pairs.
    pub fleet: Vec<(String, f64)>,
}

/// Samples that must lie beyond a quantile before it is reported: with
/// fewer, the "quantile" is one of the last few samples (p95 and p99 of
/// 24 samples are both the maximum), not a tail estimate.
const SAMPLES_BEYOND_QUANTILE: usize = 10;

/// The exact order statistic `sorted[max(1, ceil(q·n)) - 1]` of
/// `samples`, in milliseconds, or `None` when fewer than
/// [`SAMPLES_BEYOND_QUANTILE`] samples lie beyond it.
fn percentile_ms(samples: &[u64], q: f64) -> Option<f64> {
    let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
    if samples.len().saturating_sub(rank) < SAMPLES_BEYOND_QUANTILE {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted.get(rank - 1).map(|v| *v as f64 / 1000.0)
}

impl LoadReport {
    /// The `wire_*` metrics for the `BENCH_perf.json` trajectory.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        fn rate(count: usize, secs: f64) -> f64 {
            count as f64 / secs.max(1e-9)
        }
        let mut metrics = vec![
            ("wire_users".to_string(), self.users as f64),
            (
                "wire_saves_per_sec".to_string(),
                rate(self.saves, self.save_secs),
            ),
            (
                "wire_batch_saves_per_sec".to_string(),
                rate(self.wave_saves, self.wave_save_secs),
            ),
            (
                "wire_recoveries_per_sec".to_string(),
                rate(self.solo_recoveries, self.recover_secs),
            ),
            (
                "wire_batch_recoveries_per_sec".to_string(),
                rate(self.wave_recoveries, self.wave_secs),
            ),
        ];
        for (key, samples) in [
            ("save", &self.save_samples_us),
            ("recover", &self.recover_samples_us),
        ] {
            metrics.push((format!("wire_{key}_samples"), samples.len() as f64));
            for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                if let Some(ms) = percentile_ms(samples, q) {
                    metrics.push((format!("wire_{key}_{suffix}_ms"), ms));
                }
            }
        }
        metrics.extend(self.fleet.iter().cloned());
        metrics
    }
}

/// Maps a handful of fleet-side registry series onto `wire_fleet_*`
/// metric pairs so the daemon's own view of the storm (request
/// latency, WAL pressure) lands in `BENCH_perf.json` next to the
/// client-observed rates.
fn fleet_metrics(report: &safetypin_proto::MetricsReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for name in ["daemon.requests", "store.wal_appends"] {
        if let Some(value) = report.counter(name) {
            out.push((
                format!("wire_fleet_{}", name.replace('.', "_")),
                value as f64,
            ));
        }
    }
    for name in [
        "daemon.request",
        "recover.epoch",
        "recover.cluster_round",
        "save.commit",
    ] {
        if let Some(h) = report.histogram(name) {
            let flat = name.replace('.', "_");
            for (suffix, value) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
                out.push((
                    format!("wire_fleet_{flat}_{suffix}_ms"),
                    value as f64 / 1000.0,
                ));
            }
        }
    }
    out
}

fn username(i: usize) -> Vec<u8> {
    format!("load-user-{i}").into_bytes()
}

fn storm_username(i: usize) -> Vec<u8> {
    format!("storm-user-{i}").into_bytes()
}

fn pin(i: usize) -> Vec<u8> {
    format!("{:06}", (1319 * i + 71) % 1_000_000).into_bytes()
}

fn secret(i: usize) -> Vec<u8> {
    format!("wire-secret-{i}").into_bytes()
}

fn connect(addr: &str) -> Result<Tcp, RemoteError> {
    Ok(Tcp::connect(TcpConfig::new(addr))?)
}

fn refused(e: ErrorReply) -> RemoteError {
    RemoteError::Refused(e)
}

/// Runs the three phases against `opts.addr`. Returns an error on the
/// first wrong byte, refused request, or socket failure.
pub fn run(opts: &LoadOptions) -> Result<LoadReport, RemoteError> {
    // One status + enrollment fetch serves every user: the clients
    // share fleet parameters and public keys, only usernames differ.
    let mut tcp = connect(&opts.addr)?;
    let status = remote::fetch_status(&mut tcp)?;
    let params = LheParams::new(
        status.fleet_size,
        status.cluster as usize,
        status.threshold as usize,
        status.pin_space,
    )
    .map_err(|e| RemoteError::Client(ClientError::Crypto(e)))?;
    let enrollments = match tcp.call(ProviderRequest::FetchEnrollments)? {
        ProviderResponse::Enrollments(list) => list,
        ProviderResponse::Error(e) => return Err(refused(e)),
        _ => return Err(RemoteError::Protocol("expected an Enrollments reply")),
    };
    let mut clients = Vec::with_capacity(opts.users);
    for i in 0..opts.users {
        clients.push(Client::new(&username(i), params, enrollments.clone())?);
    }

    let threads = opts.threads.max(1);
    let chunk = opts.users.div_ceil(threads).max(1);

    // Phase 1: concurrent saves. Each worker samples every save's
    // wall-clock so the report can quote per-op wire percentiles, not
    // just the aggregate rate.
    let save_start = Instant::now();
    let save_samples_us = std::thread::scope(|s| -> Result<Vec<u64>, RemoteError> {
        let mut workers = Vec::new();
        for (tid, chunk_clients) in clients.chunks_mut(chunk).enumerate() {
            let addr = &opts.addr;
            workers.push(s.spawn(move || -> Result<Vec<u64>, RemoteError> {
                let mut tcp = connect(addr)?;
                let mut rng = StdRng::seed_from_u64(0x5AFE_0001 + tid as u64);
                let mut samples = Vec::with_capacity(chunk_clients.len());
                for (j, client) in chunk_clients.iter_mut().enumerate() {
                    let i = tid * chunk + j;
                    let op_start = Instant::now();
                    remote::save(&mut tcp, client, &pin(i), &secret(i), &mut rng)?;
                    samples.push(op_start.elapsed().as_micros() as u64);
                }
                Ok(samples)
            }));
        }
        let mut samples = Vec::new();
        for worker in workers {
            samples.extend(
                worker
                    .join()
                    .map_err(|_| RemoteError::Protocol("save worker panicked"))??,
            );
        }
        Ok(samples)
    })?;
    let save_secs = save_start.elapsed().as_secs_f64();

    // Phase 1b: the save storm. A second population of the same size
    // builds its artifacts client-side and uploads them as one
    // SaveBatch frame — the save-path engine's one grouped enrollment
    // refresh and one group-commit flush, measured over the socket
    // against phase 1's one-round-trip-per-user rate.
    let storm_start = Instant::now();
    let mut storm_rng = StdRng::seed_from_u64(0x5AFE_0B01);
    let mut saves = Vec::with_capacity(opts.users);
    for i in 0..opts.users {
        let name = storm_username(i);
        let mut client = Client::new(&name, params, enrollments.clone())?;
        let artifact = client.backup(&pin(i), &secret(i), 0, &mut storm_rng)?;
        saves.push(SaveRequest {
            username: name,
            blob: remote::encode_artifact(&artifact),
        });
    }
    let first_blob = saves.first().map(|s| s.blob.clone());
    let outcomes = match tcp.call(ProviderRequest::SaveBatch(saves))? {
        ProviderResponse::SavedBatch(outcomes) => outcomes,
        ProviderResponse::Error(e) => return Err(refused(e)),
        _ => return Err(RemoteError::Protocol("expected a SavedBatch reply")),
    };
    if outcomes.len() != opts.users {
        return Err(RemoteError::Protocol(
            "save wave reply has wrong user count",
        ));
    }
    for outcome in outcomes {
        if let Some(e) = outcome.error {
            return Err(refused(e));
        }
    }
    // The wave's writes are visible exactly like serial saves: read
    // one back and compare bytes.
    if let Some(first_blob) = first_blob {
        let readback = remote::fetch_backup(&mut tcp, &storm_username(0))?;
        if remote::encode_artifact(&readback) != first_blob {
            return Err(RemoteError::Protocol("save wave stored wrong bytes"));
        }
    }
    let wave_save_secs = storm_start.elapsed().as_secs_f64();

    // Phase 2: concurrent solo recoveries over the first half. The
    // lock serializes each user's log-insert → epoch → proof → recover
    // span; backup fetches overlap freely.
    let solo_count = opts.users.div_ceil(2);
    let (solo, wave) = clients.split_at(solo_count);
    let epoch_lock = Mutex::new(());
    let solo_chunk = solo_count.div_ceil(threads).max(1);
    let recover_start = Instant::now();
    let recover_samples_us = std::thread::scope(|s| -> Result<Vec<u64>, RemoteError> {
        let mut workers = Vec::new();
        for (tid, chunk_clients) in solo.chunks(solo_chunk).enumerate() {
            let addr = &opts.addr;
            let epoch_lock = &epoch_lock;
            workers.push(s.spawn(move || -> Result<Vec<u64>, RemoteError> {
                let mut tcp = connect(addr)?;
                let mut rng = StdRng::seed_from_u64(0x5AFE_1001 + tid as u64);
                let mut samples = Vec::with_capacity(chunk_clients.len());
                for (j, client) in chunk_clients.iter().enumerate() {
                    let i = tid * solo_chunk + j;
                    let artifact = remote::fetch_backup(&mut tcp, client.username())?;
                    let guard = epoch_lock.lock().unwrap_or_else(|e| e.into_inner());
                    // Sample inside the lock: the measured span is the
                    // recovery protocol itself, not queueing on the
                    // client-side epoch lock.
                    let op_start = Instant::now();
                    let plaintext =
                        remote::recover(&mut tcp, client, &pin(i), &artifact, &mut rng)?;
                    samples.push(op_start.elapsed().as_micros() as u64);
                    drop(guard);
                    if plaintext != secret(i) {
                        return Err(RemoteError::Protocol("solo recovery returned wrong bytes"));
                    }
                }
                Ok(samples)
            }));
        }
        let mut samples = Vec::new();
        for worker in workers {
            samples.extend(
                worker
                    .join()
                    .map_err(|_| RemoteError::Protocol("recover worker panicked"))??,
            );
        }
        Ok(samples)
    })?;
    let recover_secs = recover_start.elapsed().as_secs_f64();

    // Phase 3: the second half recovers as one RecoverBatch wave.
    let wave_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0x5AFE_2001);
    let mut attempts = Vec::with_capacity(wave.len());
    for (k, client) in wave.iter().enumerate() {
        let i = solo_count + k;
        let artifact = remote::fetch_backup(&mut tcp, client.username())?;
        let attempt = client.start_recovery(&pin(i), &artifact.ciphertext, false, &mut rng)?;
        let (id, value) = attempt.log_entry();
        match tcp.call(ProviderRequest::InsertLog { id, value })? {
            ProviderResponse::Ack => {}
            ProviderResponse::Error(e) => return Err(refused(e)),
            _ => return Err(RemoteError::Protocol("expected an Ack reply")),
        }
        attempts.push(attempt);
    }
    let mut wave_recoveries = 0;
    if !attempts.is_empty() {
        match tcp.call(ProviderRequest::RunEpoch)? {
            ProviderResponse::EpochCertified { .. } => {}
            ProviderResponse::Error(e) => return Err(refused(e)),
            _ => return Err(RemoteError::Protocol("expected an EpochCertified reply")),
        }
        let mut batch = Vec::with_capacity(attempts.len());
        for attempt in &attempts {
            let (id, value) = attempt.log_entry();
            let proof = match tcp.call(ProviderRequest::ProveInclusion { id, value })? {
                ProviderResponse::Inclusion(Some(proof)) => proof,
                ProviderResponse::Inclusion(None) => {
                    return Err(refused(ErrorReply::new(
                        codes::LOG_REFUSED,
                        "the logged attempt has no inclusion proof",
                    )))
                }
                ProviderResponse::Error(e) => return Err(refused(e)),
                _ => return Err(RemoteError::Protocol("expected an Inclusion reply")),
            };
            batch.push(attempt.requests(&proof));
        }
        let per_user = match tcp.call(ProviderRequest::RecoverBatch(batch))? {
            ProviderResponse::RecoveredBatch(per_user) => per_user,
            ProviderResponse::Error(e) => return Err(refused(e)),
            _ => return Err(RemoteError::Protocol("expected a RecoveredBatch reply")),
        };
        if per_user.len() != attempts.len() {
            return Err(RemoteError::Protocol("batch reply has wrong user count"));
        }
        for (k, (attempt, replies)) in attempts.iter().zip(per_user).enumerate() {
            let mut responses = Vec::new();
            for (_, reply) in replies {
                match reply {
                    HsmResponse::RecoveryShare { response, .. } => responses.push(response),
                    // One device's DECRYPT_FAILED (a Bloom-filter false
                    // positive) costs that share, not the wave.
                    HsmResponse::Error(e)
                        if e.is_transport_fault()
                            || e.code == codes::UNAVAILABLE
                            || e.code == codes::DECRYPT_FAILED =>
                    {
                        continue
                    }
                    HsmResponse::Error(e) => return Err(refused(e)),
                    _ => return Err(RemoteError::Protocol("expected a RecoveryShare item")),
                }
            }
            let plaintext = attempt.finish(responses)?;
            if plaintext != secret(solo_count + k) {
                return Err(RemoteError::Protocol("wave recovery returned wrong bytes"));
            }
            wave_recoveries += 1;
        }
    }
    let wave_secs = wave_start.elapsed().as_secs_f64();

    // Scrape the daemon's registry so the fleet's own view of the
    // storm rides along in the report. An older daemon that refuses
    // the request simply yields no fleet series — not an error.
    let fleet = match tcp.call(ProviderRequest::Metrics) {
        Ok(ProviderResponse::Metrics(report)) => fleet_metrics(&report),
        _ => Vec::new(),
    };

    Ok(LoadReport {
        users: opts.users,
        saves: opts.users,
        save_secs,
        wave_saves: opts.users,
        wave_save_secs,
        solo_recoveries: solo_count,
        recover_secs,
        wave_recoveries,
        wave_secs,
        save_samples_us,
        recover_samples_us,
        fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(samples_us: Vec<u64>) -> LoadReport {
        LoadReport {
            users: samples_us.len(),
            saves: samples_us.len(),
            save_secs: 1.0,
            wave_saves: 0,
            wave_save_secs: 1.0,
            solo_recoveries: samples_us.len(),
            recover_secs: 1.0,
            wave_recoveries: 0,
            wave_secs: 1.0,
            save_samples_us: samples_us.clone(),
            recover_samples_us: samples_us,
            fleet: Vec::new(),
        }
    }

    fn metric(metrics: &[(String, f64)], key: &str) -> Option<f64> {
        metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    #[test]
    fn tail_quantiles_need_ten_samples_beyond_them() {
        let metrics = report_with((1..=24).map(|ms| ms * 1000).collect()).metrics();
        for key in ["save", "recover"] {
            let get = |quantity: &str| metric(&metrics, &format!("wire_{key}_{quantity}"));
            assert_eq!(get("samples"), Some(24.0));
            // 12 of 24 samples lie beyond the median: reported.
            assert_eq!(get("p50_ms"), Some(12.0));
            // One and zero samples lie beyond p95 and p99: withheld.
            assert_eq!(get("p95_ms"), None);
            assert_eq!(get("p99_ms"), None);
        }

        // 200 samples leave exactly ten beyond p95 (rank 190).
        let metrics = report_with((1..=200).map(|ms| ms * 1000).collect()).metrics();
        assert_eq!(metric(&metrics, "wire_save_p95_ms"), Some(190.0));
        assert_eq!(metric(&metrics, "wire_save_p99_ms"), None);
    }
}
