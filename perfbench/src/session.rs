//! One client connection as the benchmark sees it: an endpoint, a
//! clock that can leave benchmark scaffolding out of the timings, and an
//! in-memory span recorder around every call the benchmark makes.
//!
//! Spans are recorded from outside the program: around each
//! [`ProviderEndpoint::call`] (named `wire.<request>` over TCP and
//! `provider.<request>` in process) and around the client-crate calls
//! the flows make (`client.seal`, `client.start`, `client.finish`).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use safetypin_client::remote::ProviderEndpoint;
use safetypin_proto::{ProtoError, ProviderRequest, ProviderResponse};

/// A clock whose readings exclude time spent in benchmark scaffolding
/// (building one `Client` per simulated device), so that per-user
/// latencies measure only what a device and the provider do.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    excluded: f64,
    exclude: bool,
}

impl Clock {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            excluded: 0.0,
            exclude: true,
        }
    }

    /// A wall clock: scaffolding stays on it. Open-loop connections use
    /// it, since their arrival schedule runs on real time and they build
    /// each device before its operation is due.
    pub fn wall(origin: Instant) -> Self {
        Self {
            exclude: false,
            ..Self::new(origin)
        }
    }

    /// Seconds since the origin, scaffolding excluded.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.excluded
    }

    /// Runs `f` off the clock.
    pub fn scaffold<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        if self.exclude {
            self.excluded += start.elapsed().as_secs_f64();
        }
        out
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Enclosing span (0 = a root).
    pub parent: u32,
    /// The operation (user flow or wave) the span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Process-wide work counters read around calls (in-process replay).
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub var_mults: u64,
    pub msm_terms: u64,
    pub msm_calls: u64,
    pub hashes: u64,
}

impl Work {
    fn now() -> Self {
        let ops = p256::op_counts();
        // The hash counter only offers take-and-reset; the benchmark is
        // its only reader, so it keeps the running total itself.
        let taken = safetypin_primitives::hashes::take_hash_ops();
        Self {
            var_mults: ops.var_mults,
            msm_terms: ops.msm_terms,
            msm_calls: ops.msm_calls,
            hashes: HASHES.fetch_add(taken, Ordering::SeqCst) + taken,
        }
    }

    fn add_delta(&mut self, before: &Work, after: &Work) {
        self.var_mults += after.var_mults - before.var_mults;
        self.msm_terms += after.msm_terms - before.msm_terms;
        self.msm_calls += after.msm_calls - before.msm_calls;
        self.hashes += after.hashes - before.hashes;
    }
}

static HASHES: AtomicU64 = AtomicU64::new(0);

/// Which layer the endpoint's call spans belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Wire,
    Provider,
}

/// The span name of a request at a layer.
pub fn call_name(layer: Layer, request: &ProviderRequest) -> &'static str {
    let wire = layer == Layer::Wire;
    match request {
        ProviderRequest::FetchBackup { .. } if wire => "wire.fetch_backup",
        ProviderRequest::FetchBackup { .. } => "provider.fetch_backup",
        ProviderRequest::InsertLog { .. } if wire => "wire.insert_log",
        ProviderRequest::InsertLog { .. } => "provider.insert_log",
        ProviderRequest::RunEpoch if wire => "wire.run_epoch",
        ProviderRequest::RunEpoch => "provider.run_epoch",
        ProviderRequest::ProveInclusion { .. } if wire => "wire.prove_inclusion",
        ProviderRequest::ProveInclusion { .. } => "provider.prove_inclusion",
        ProviderRequest::Recover(_) if wire => "wire.recover",
        ProviderRequest::Recover(_) => "provider.recover",
        ProviderRequest::RecoverBatch(_) if wire => "wire.recover_batch",
        ProviderRequest::RecoverBatch(_) => "provider.recover_batch",
        ProviderRequest::PutBackup { .. } if wire => "wire.put_backup",
        ProviderRequest::PutBackup { .. } => "provider.put_backup",
        ProviderRequest::SaveBatch(_) if wire => "wire.save_batch",
        ProviderRequest::SaveBatch(_) => "provider.save_batch",
        _ if wire => "wire.other",
        _ => "provider.other",
    }
}

/// A connection plus its recorder.
pub struct Session<E> {
    pub ep: E,
    pub clock: Clock,
    layer: Layer,
    trace: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
    op: u32,
    /// In process: work done inside client and provider calls.
    pub work: Work,
    /// In process: the open provider span, read by the timing transport
    /// to tag the HSM rounds it carries. Set, it also turns on the work
    /// counters.
    current: Option<Arc<AtomicU32>>,
}

impl<E> Session<E> {
    pub fn new(ep: E, clock: Clock, layer: Layer) -> Self {
        Self {
            ep,
            clock,
            layer,
            trace: false,
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            op: 0,
            work: Work::default(),
            current: None,
        }
    }

    /// Turns span recording on (ids start at `first_id`, so several
    /// sessions' spans can be merged).
    pub fn traced(mut self, first_id: u32) -> Self {
        self.trace = true;
        self.next_id = first_id;
        self
    }

    /// Turns work counting on and links the timing transport's cell.
    pub fn counting(mut self, current: Arc<AtomicU32>) -> Self {
        self.current = Some(current);
        self
    }

    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Opens a span (a no-op returning 0 when tracing is off).
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.trace {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        if parent == 0 {
            self.op = id;
        }
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start: self.clock.now(),
            end: f64::NAN,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let now = self.clock.now();
        self.stack.retain(|s| *s != id);
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end = now;
        }
    }

    /// Runs a client-crate call inside a span (and work counters).
    pub fn client<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = self.current.is_some().then(Work::now);
        let id = self.begin(name);
        let out = f();
        self.end(id);
        if let Some(before) = before {
            let after = Work::now();
            self.work.add_delta(&before, &after);
        }
        out
    }

    /// Runs benchmark scaffolding off the clock.
    pub fn scaffold<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.clock.scaffold(f)
    }
}

impl<E: ProviderEndpoint> ProviderEndpoint for Session<E> {
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        let before = self.current.is_some().then(Work::now);
        let id = self.begin(call_name(self.layer, &request));
        if let Some(current) = &self.current {
            current.store(id, Ordering::SeqCst);
        }
        let out = self.ep.call(request);
        if let Some(current) = &self.current {
            current.store(0, Ordering::SeqCst);
        }
        self.end(id);
        if let Some(before) = before {
            let after = Work::now();
            self.work.add_delta(&before, &after);
        }
        out
    }
}
