//! The per-layer budget of a traced run, normalised per operation of
//! the workload (per save or per recovery) unless named as a ratio.

use std::collections::HashSet;

use safetypin_proto::{MetricsReport, TransportStats};
use safetypin_seckv::StoreStats;

use crate::daemon::Delta;
use crate::inproc::Round;
use crate::session::{Span, Work};
use crate::stats::percentile;

/// What the in-process replay measured.
pub struct Inproc {
    pub spans: Vec<Span>,
    pub rounds: Vec<Round>,
    pub store: StoreStats,
    pub transport: TransportStats,
    pub work: Work,
}

/// Inputs of the budget.
pub struct Budget<'a> {
    /// Over the wire: the traced pass.
    pub spans: &'a [Span],
    pub saves: f64,
    pub recoveries: f64,
    pub before: &'a MetricsReport,
    pub after: &'a MetricsReport,
    pub late: &'a [f64],
    pub attempted: u64,
    pub failed: u64,
    /// Mean per-user latency, untraced and traced passes.
    pub untraced_mean: f64,
    pub traced_mean: f64,
    pub inproc: &'a Inproc,
}

/// Requests on the save path; every other request is normalised per
/// recovery.
const SAVE_REQUESTS: [&str; 2] = ["put_backup", "save_batch"];
const WIRE_REQUESTS: [&str; 8] = [
    "fetch_backup",
    "insert_log",
    "run_epoch",
    "prove_inclusion",
    "recover",
    "recover_batch",
    "put_backup",
    "save_batch",
];
/// Provider requests that carry HSM rounds (reported inclusive and
/// self).
const ROUND_REQUESTS: [&str; 5] = [
    "run_epoch",
    "recover",
    "recover_batch",
    "put_backup",
    "save_batch",
];
const LOG_REQUESTS: [&str; 2] = ["insert_log", "prove_inclusion"];

fn sum_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

/// The share of root-span time no direct child span covers.
pub fn residual_share(spans: &[Span]) -> f64 {
    let roots: HashSet<u32> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.id)
        .collect();
    let total: f64 = spans.iter().filter(|s| s.parent == 0).map(Span::secs).sum();
    let covered: f64 = spans
        .iter()
        .filter(|s| roots.contains(&s.parent))
        .map(Span::secs)
        .sum();
    per(total - covered, total)
}

pub type Metric = (String, f64, &'static str);

pub fn budget(b: &Budget<'_>) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };
    let ops = b.saves + b.recoveries;
    let delta = Delta {
        before: b.before,
        after: b.after,
    };
    let class = |req: &str| {
        if SAVE_REQUESTS.contains(&req) {
            b.saves
        } else {
            b.recoveries
        }
    };

    // Client and wire, over the wire.
    let ms = |name: &str| sum_secs(b.spans, name) * 1e3;
    put("client.seal_ms", per(ms("client.seal"), b.saves), "ms");
    put(
        "client.start_ms",
        per(ms("client.start"), b.recoveries),
        "ms",
    );
    put(
        "client.finish_ms",
        per(ms("client.finish"), b.recoveries),
        "ms",
    );
    put(
        "client.lock_wait_ms",
        per(ms("client.lock_wait"), ops),
        "ms",
    );
    for req in WIRE_REQUESTS {
        let value = per(ms(&format!("wire.{req}")), class(req));
        put(&format!("wire.{req}_ms"), value, "ms");
    }
    let wire: Vec<&Span> = b
        .spans
        .iter()
        .filter(|s| s.name.starts_with("wire."))
        .collect();
    let wire_ms: f64 = wire.iter().map(|s| s.secs()).sum::<f64>() * 1e3;
    put("wire.calls_per_op", per(wire.len() as f64, ops), "count");
    let bytes = delta.counter("tcp.bytes_in") + delta.counter("tcp.bytes_out");
    put("wire.bytes_per_op", per(bytes as f64, ops), "bytes");

    // Daemon, from the exact count/sum deltas of its own series.
    let (_, request_ms) = delta.histogram_ms("daemon.request");
    let (_, lock_ms) = delta.histogram_ms("daemon.lock_wait");
    put("proto.overhead_ms", per(wire_ms - request_ms, ops), "ms");
    put("daemon.request_ms", per(request_ms, ops), "ms");
    put("daemon.lock_wait_ms", per(lock_ms, ops), "ms");
    put("daemon.lock_wait_share", per(lock_ms, request_ms), "ratio");
    let refused = delta.counters_with("daemon.refused.") as f64;
    put("daemon.refused", per(refused, ops), "count");
    for (metric, series) in [
        ("hsm.msm_audit_ms", "hsm.msm_audit"),
        ("hsm.coalesced_puncture_ms", "hsm.coalesced_puncture"),
        ("hsm.group_commit_ms", "hsm.group_commit"),
    ] {
        let (count, sum_ms) = delta.histogram_ms(series);
        put(metric, per(sum_ms, count as f64), "ms");
    }
    let (_, fsync_ms) = delta.histogram_ms("store.fsync");
    put("store.fsync_ms", per(fsync_ms, ops), "ms");
    let wal = delta.counter("store.wal_bytes") as f64;
    put("store.wal_bytes_per_op", per(wal, ops), "bytes");

    // Provider, HSM rounds, store and work counts, in process.
    let inproc = b.inproc;
    let pms = |name: &str| sum_secs(&inproc.spans, name) * 1e3;
    for req in ROUND_REQUESTS {
        let name = format!("provider.{req}");
        let ids: HashSet<u32> = inproc
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect();
        let rounds_ms: f64 = inproc
            .rounds
            .iter()
            .filter(|r| ids.contains(&r.parent))
            .map(|r| r.secs)
            .sum::<f64>()
            * 1e3;
        let inclusive = pms(&name);
        put(&format!("{name}_ms"), per(inclusive, class(req)), "ms");
        put(
            &format!("{name}_self_ms"),
            per(inclusive - rounds_ms, class(req)),
            "ms",
        );
    }
    for req in LOG_REQUESTS {
        put(
            &format!("provider.{req}_ms"),
            per(pms(&format!("provider.{req}")), class(req)),
            "ms",
        );
    }
    for class in ["batch", "grouped", "single"] {
        let secs: f64 = inproc
            .rounds
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.secs)
            .sum();
        put(&format!("hsm.round_ms.{class}"), per(secs * 1e3, ops), "ms");
    }
    put(
        "hsm.rounds_per_op",
        per(inproc.rounds.len() as f64, ops),
        "count",
    );
    put(
        "hsm.messages_per_op",
        per(inproc.transport.messages as f64, ops),
        "count",
    );
    put(
        "hsm.envelopes_per_op",
        per(inproc.transport.envelopes as f64, ops),
        "count",
    );
    let st = &inproc.store;
    put("store.reads_per_op", per(st.reads as f64, ops), "count");
    put("store.writes_per_op", per(st.writes as f64, ops), "count");
    put("store.flushes_per_op", per(st.flushes as f64, ops), "count");
    let lookups = (st.cache_hits + st.cache_misses) as f64;
    put(
        "store.cache_hit_ratio",
        per(st.cache_hits as f64, lookups),
        "ratio",
    );
    let w = &inproc.work;
    put(
        "p256.var_mults_per_op",
        per(w.var_mults as f64, ops),
        "count",
    );
    put(
        "p256.msm_terms_per_op",
        per(w.msm_terms as f64, ops),
        "count",
    );
    put(
        "p256.msm_calls_per_op",
        per(w.msm_calls as f64, ops),
        "count",
    );
    put("sha256.ops_per_op", per(w.hashes as f64, ops), "count");

    // Validity of the run itself.
    put("gen.late_p99_ms", percentile(b.late, 0.99) * 1e3, "ms");
    put(
        "failed_ratio",
        per(b.failed as f64, b.attempted as f64),
        "ratio",
    );
    put("budget.residual_share", residual_share(b.spans), "ratio");
    // In process every HSM round must sit inside a provider span; any
    // that does not is unattributed time.
    let orphan: f64 = inproc
        .rounds
        .iter()
        .filter(|r| r.parent == 0)
        .map(|r| r.secs)
        .sum();
    let roots: f64 = inproc
        .spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::secs)
        .sum();
    put(
        "budget.inproc_residual_share",
        residual_share(&inproc.spans) + per(orphan, roots),
        "ratio",
    );
    put(
        "trace.overhead_ratio",
        per(b.traced_mean, b.untraced_mean),
        "ratio",
    );
    out
}
