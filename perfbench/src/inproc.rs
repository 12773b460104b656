//! The in-process half of the traced run: a benchmark-owned timing
//! [`Transport`] around `Direct`, installed into a deployment opened
//! with `DeploymentBuilder::open`, so each HSM round can be timed and
//! tagged with the provider span (`Deployment::handle`) that issued it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use safetypin_proto::{
    Direct, ProtoError, ServeTrafficFn, Traffic, TrafficReply, Transport, TransportStats,
};

/// One timed HSM round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// The provider span open while the round ran (0 = none).
    pub parent: u32,
    pub class: &'static str,
    pub secs: f64,
}

pub type RoundLog = Arc<Mutex<Vec<Round>>>;

pub struct TimingTransport {
    inner: Direct,
    current: Arc<AtomicU32>,
    log: RoundLog,
}

impl TimingTransport {
    pub fn new(current: Arc<AtomicU32>, log: RoundLog) -> Self {
        Self {
            inner: Direct::new(),
            current,
            log,
        }
    }
}

fn class(traffic: &Traffic) -> &'static str {
    match traffic {
        Traffic::Single(..) => "single",
        Traffic::Batch(_) => "batch",
        Traffic::Grouped(_) => "grouped",
        Traffic::Provider(_) => "provider",
    }
}

impl Transport for TimingTransport {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        let class = class(&traffic);
        let start = Instant::now();
        let reply = self.inner.round(traffic, serve);
        let round = Round {
            parent: self.current.load(Ordering::SeqCst),
            class,
            secs: start.elapsed().as_secs_f64(),
        };
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(round);
        reply
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn take_stats(&mut self) -> TransportStats {
        self.inner.take_stats()
    }
}
