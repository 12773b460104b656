//! `safetypin-load` — the over-the-wire load generator.
//!
//! Drives save/recover storms against a running `safetypind` (see
//! `safetypin_daemon::load`), prints the measured rates, and folds the
//! `wire_*` metrics into the repository's `bench_out/BENCH_perf.json`
//! trajectory (`$BENCH_OUT` overrides the directory).

use std::process::ExitCode;

use safetypin_daemon::load::{self, LoadOptions};
use safetypin_daemon::perf;

const USAGE: &str = "\
usage: safetypin-load <addr> [options]

options:
  --users N    total users (default 24; half solo, half batch wave)
  --threads T  concurrent connections (default 4)
  --quick      CI scale: 6 users over 2 connections
";

fn parse_args() -> Result<LoadOptions, String> {
    let mut argv = std::env::args().skip(1);
    let addr = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut opts = LoadOptions::new(addr);
    if std::env::var("PERF_QUICK").is_ok_and(|v| v == "1") {
        opts = opts.quick();
    }
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--users" => {
                opts.users = value("a count")?
                    .parse()
                    .map_err(|e| format!("--users: {e}"))?
            }
            "--threads" => {
                opts.threads = value("a count")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--quick" => opts = opts.quick(),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.users == 0 {
        return Err("--users must be positive".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("safetypin-load: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match load::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("safetypin-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "saved {} backups in {:.2}s ({:.1}/s)",
        report.saves,
        report.save_secs,
        report.saves as f64 / report.save_secs.max(1e-9),
    );
    println!(
        "saved {} backups in one SaveBatch wave in {:.2}s ({:.1}/s over the wire)",
        report.wave_saves,
        report.wave_save_secs,
        report.wave_saves as f64 / report.wave_save_secs.max(1e-9),
    );
    println!(
        "recovered {} users solo in {:.2}s ({:.2}/s over the wire)",
        report.solo_recoveries,
        report.recover_secs,
        report.solo_recoveries as f64 / report.recover_secs.max(1e-9),
    );
    println!(
        "recovered {} users in one batch wave in {:.2}s ({:.2}/s over the wire)",
        report.wave_recoveries,
        report.wave_secs,
        report.wave_recoveries as f64 / report.wave_secs.max(1e-9),
    );
    let metrics = report.metrics();
    // A quantile with fewer than ten samples beyond it is not reported.
    let ms = |key: &str| {
        metrics
            .iter()
            .find(|(name, _)| name == key)
            .map_or("n/a".to_string(), |(_, v)| format!("{v:.1}ms"))
    };
    for (op, samples) in [
        ("save", report.save_samples_us.len()),
        ("recover", report.recover_samples_us.len()),
    ] {
        println!(
            "{op} latency ({samples} samples) p50 {} / p95 {} / p99 {}",
            ms(&format!("wire_{op}_p50_ms")),
            ms(&format!("wire_{op}_p95_ms")),
            ms(&format!("wire_{op}_p99_ms")),
        );
    }
    let dir = perf::bench_out_dir();
    match perf::merge_metrics(
        &dir,
        "perf",
        "hot-path optimizations, baseline vs optimized (measured)",
        "wire_",
        &metrics,
    ) {
        Ok(path) => {
            println!("merged wire_* metrics into {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("safetypin-load: writing {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}
