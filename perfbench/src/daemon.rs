//! A `safetypind` child process on a fresh store directory.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use safetypin_client::remote::{self, ProviderEndpoint};
use safetypin_proto::{MetricsReport, ProviderRequest, ProviderResponse, StatusReport};

/// The fleet shape every workload runs at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub total: u64,
    pub cluster: usize,
    pub slots: u64,
    pub seed: u64,
}

pub struct Daemon {
    child: Child,
    pub addr: String,
    dir: PathBuf,
}

const START_TIMEOUT: Duration = Duration::from_secs(150);

impl Daemon {
    /// Spawns `bin` on `dir`, which must not exist yet: every run
    /// provisions a fresh fleet, never a reused one. Returns once the
    /// daemon is listening.
    pub fn spawn(bin: &Path, dir: &Path, shape: &Shape) -> Result<Self, String> {
        if dir.exists() {
            return Err(format!("store directory {} already exists", dir.display()));
        }
        let mut child = Command::new(bin)
            .arg("--store-dir")
            .arg(dir)
            .args(["--listen", "127.0.0.1:0", "--scaled"])
            .args([
                shape.total.to_string(),
                shape.cluster.to_string(),
                shape.slots.to_string(),
            ])
            .args(["--seed", &shape.seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take();
        let mut daemon = Self {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let stdout = stdout.ok_or("daemon stdout not captured")?;
        // Read the listening line on a helper thread so a daemon that
        // never prints cannot hang the benchmark; the thread then drains
        // the rest of the output until the daemon exits.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("safetypind listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        daemon.addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "safetypind did not start listening".to_string())?;
        Ok(daemon)
    }

    /// Peak resident set (VmHWM) of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".to_string())
    }

    /// CPU seconds (user + system) the daemon has used so far.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        cpu_secs(&self.child.id().to_string())
    }

    /// Stops the daemon, waits for it, and removes its store.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.halt();
    }
}

/// CPU seconds (user + system) process `pid` (or `self`) has used,
/// from `/proc/<pid>/stat` in the kernel's 100 Hz clock ticks.
pub fn cpu_secs(pid: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(format!("unexpected /proc/{pid}/stat layout")),
    }
}

/// Flushes every file under `dir` to disk. Provisioning leaves tens of
/// megabytes of dirty pages behind; writing them back before the timed
/// phase keeps the kernel's background writeback out of the measured
/// fsyncs.
pub fn settle(dir: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            settle(&path)?;
        } else {
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

pub fn status<E: ProviderEndpoint>(ep: &mut E) -> Result<StatusReport, String> {
    remote::fetch_status(ep).map_err(|e| format!("status: {e}"))
}

pub fn metrics<E: ProviderEndpoint>(ep: &mut E) -> Result<MetricsReport, String> {
    match ep.call(ProviderRequest::Metrics) {
        Ok(ProviderResponse::Metrics(report)) => Ok(report),
        Ok(_) => Err("expected a Metrics reply".to_string()),
        Err(e) => Err(format!("metrics: {e}")),
    }
}

/// Exact counter and histogram-sum deltas between two scrapes. The
/// log₂-bucket quantiles in the report are never used.
pub struct Delta<'a> {
    pub before: &'a MetricsReport,
    pub after: &'a MetricsReport,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counter(name).unwrap_or(0);
        let b = self.before.counter(name).unwrap_or(0);
        a.saturating_sub(b)
    }

    /// Counters whose names start with `prefix`, summed.
    pub fn counters_with(&self, prefix: &str) -> u64 {
        self.after
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| self.counter(name))
            .sum()
    }

    /// `(Δcount, Δsum in ms)` of a microsecond histogram.
    pub fn histogram_ms(&self, name: &str) -> (u64, f64) {
        let pick = |r: &MetricsReport| r.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (ca, sa) = pick(self.after);
        let (cb, sb) = pick(self.before);
        (ca.saturating_sub(cb), sa.saturating_sub(sb) as f64 / 1000.0)
    }
}
