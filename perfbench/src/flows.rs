//! The user flows the workloads are made of, composed from the public
//! client API (`Client`, `RecoveryAttempt`, `safetypin_client::remote`)
//! so that spans can sit between the steps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use rand::{CryptoRng, RngCore};
use safetypin::lhe::LheParams;
use safetypin_client::remote::{self, ProviderEndpoint, RemoteError};
use safetypin_client::{Client, RecoveryAttempt};
use safetypin_proto::{
    codes, EnrollmentRecord, HsmResponse, ProviderRequest, ProviderResponse, RecoveryResponse,
    SaveRequest,
};

use crate::gen::User;
use crate::session::Session;

/// Why an operation did not complete.
#[derive(Debug)]
pub enum OpError {
    /// Refused or errored: counted against `failed`, the run goes on.
    Failed(String),
    /// A correctness violation: the run aborts.
    Fatal(String),
}

impl From<RemoteError> for OpError {
    fn from(e: RemoteError) -> Self {
        OpError::Failed(e.to_string())
    }
}

impl From<safetypin_proto::ProtoError> for OpError {
    fn from(e: safetypin_proto::ProtoError) -> Self {
        OpError::Failed(format!("transport: {e}"))
    }
}

fn refused(what: &str, resp: ProviderResponse) -> OpError {
    match resp {
        ProviderResponse::Error(e) => OpError::Failed(format!("{what} refused: {e}")),
        _ => OpError::Failed(format!("{what}: unexpected reply kind")),
    }
}

/// What every simulated device downloads once: the fleet's LHE
/// parameters and enrollment records.
pub struct Fleet {
    pub params: LheParams,
    pub enrollments: Vec<EnrollmentRecord>,
    /// `BfeParams::max_punctures` of the fleet's keys.
    pub max_punctures: u64,
}

impl Fleet {
    pub fn fetch<E: ProviderEndpoint>(ep: &mut E, max_punctures: u64) -> Result<Self, String> {
        let status = remote::fetch_status(ep).map_err(|e| e.to_string())?;
        let params = LheParams::new(
            status.fleet_size,
            status.cluster as usize,
            status.threshold as usize,
            status.pin_space,
        )
        .map_err(|e| e.to_string())?;
        let enrollments = match ep
            .call(ProviderRequest::FetchEnrollments)
            .map_err(|e| e.to_string())?
        {
            ProviderResponse::Enrollments(list) => list,
            _ => return Err("expected an Enrollments reply".to_string()),
        };
        Ok(Self {
            params,
            enrollments,
            max_punctures,
        })
    }

    /// One simulated device. Each client holds the whole fleet's
    /// public keys, so the benchmark builds one per flow and drops it.
    pub fn client(&self, user: &User) -> Result<Client, OpError> {
        Client::new(&user.name, self.params, self.enrollments.clone())
            .map_err(|e| OpError::Fatal(format!("client construction: {e}")))
    }
}

/// Acknowledged log-mutating calls, for the exactly-once check against
/// the daemon's `StatusReport`.
#[derive(Default)]
pub struct Ledger {
    pub saves: AtomicU64,
    pub inserts: AtomicU64,
    pub epochs: AtomicU64,
}

impl Ledger {
    pub fn log_entries(&self) -> u64 {
        self.saves.load(Ordering::SeqCst) + self.inserts.load(Ordering::SeqCst)
    }

    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::SeqCst)
    }
}

/// Punctures per HSM, counted from each attempt's public cluster: the
/// run refuses to carry any HSM past its keys' rotation point.
pub struct Punctures {
    per_hsm: Mutex<Vec<u64>>,
    max: u64,
}

impl Punctures {
    pub fn new(fleet_size: u64, max: u64) -> Self {
        Self {
            per_hsm: Mutex::new(vec![0; fleet_size as usize]),
            max,
        }
    }

    /// Charges one attempt (one puncture per distinct cluster HSM).
    pub fn charge(&self, attempt: &RecoveryAttempt) -> Result<(), OpError> {
        let mut cluster = attempt.cluster().to_vec();
        cluster.sort_unstable();
        cluster.dedup();
        let mut per_hsm = self.per_hsm.lock().unwrap_or_else(|e| e.into_inner());
        for id in cluster {
            let count = per_hsm
                .get_mut(id as usize)
                .ok_or_else(|| OpError::Fatal(format!("cluster names unknown HSM {id}")))?;
            *count += 1;
            if *count > self.max {
                return Err(OpError::Fatal(format!(
                    "HSM {id} would pass its rotation point ({} punctures)",
                    self.max
                )));
            }
        }
        Ok(())
    }

    pub fn busiest(&self) -> u64 {
        let per_hsm = self.per_hsm.lock().unwrap_or_else(|e| e.into_inner());
        per_hsm.iter().copied().max().unwrap_or(0)
    }
}

/// A FIFO lock taken in due order: it serialises every log-mutating
/// call of the `mix` workload, and each recovery holds it from
/// `InsertLog` through `Recover` so that a concurrent save cannot move
/// the log under an inclusion proof. Taking turns in due order also
/// makes the log's evolution the same on every run of one seed.
#[derive(Default)]
pub struct Ticket {
    /// The next turn, or `usize::MAX` once aborted.
    next: Mutex<usize>,
    turn: Condvar,
}

impl Ticket {
    fn wait(&self, seq: usize) {
        let mut next = self.next.lock().unwrap_or_else(|e| e.into_inner());
        while *next != seq && *next != usize::MAX {
            next = self.turn.wait(next).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn aborted(&self) -> bool {
        *self.next.lock().unwrap_or_else(|e| e.into_inner()) == usize::MAX
    }

    /// Releases every waiter for good (a correctness violation ends the
    /// run).
    pub fn abort(&self) {
        let mut next = self.next.lock().unwrap_or_else(|e| e.into_inner());
        *next = usize::MAX;
        self.turn.notify_all();
    }

    fn release(&self) {
        let mut next = self.next.lock().unwrap_or_else(|e| e.into_inner());
        *next = next.saturating_add(1);
        self.turn.notify_all();
    }
}

/// One operation's turn at the [`Ticket`]. Dropping an unused turn
/// still waits for it and passes it on, so a failed operation never
/// stalls the ones behind it.
pub struct Turn<'a> {
    ticket: &'a Ticket,
    seq: usize,
    held: bool,
    used: bool,
}

impl<'a> Turn<'a> {
    pub fn new(ticket: &'a Ticket, seq: usize) -> Self {
        Self {
            ticket,
            seq,
            held: false,
            used: false,
        }
    }

    fn take<E>(&mut self, s: &mut Session<E>) {
        let id = s.begin("client.lock_wait");
        self.ticket.wait(self.seq);
        s.end(id);
        self.held = true;
        self.used = true;
    }

    fn give(&mut self) {
        if self.held {
            self.held = false;
            self.ticket.release();
        }
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        if !self.used {
            self.ticket.wait(self.seq);
            self.held = true;
        }
        self.give();
    }
}

/// What the flows share.
pub struct Ctx<'a> {
    pub fleet: &'a Fleet,
    pub users: &'a [User],
    pub ledger: &'a Ledger,
    pub punctures: &'a Punctures,
}

/// One solo save: seal on the device, then `PutBackup`. Returns the
/// uploaded blob.
pub fn save_solo<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    user: usize,
    mut client: Client,
    rng: &mut R,
    mut turn: Option<&mut Turn<'_>>,
) -> Result<Vec<u8>, OpError> {
    let u = &ctx.users[user];
    let root = s.begin("op.save");
    let sealed = s.client("client.seal", || client.backup(&u.pin, &u.secret, 0, rng));
    s.scaffold(|| drop(client));
    let artifact = sealed.map_err(|e| OpError::Failed(format!("seal: {e}")))?;
    let blob = remote::encode_artifact(&artifact);
    if let Some(turn) = turn.as_deref_mut() {
        turn.take(s);
    }
    let reply = s.call(ProviderRequest::PutBackup {
        username: u.name.clone(),
        blob: blob.clone(),
    });
    if let Some(turn) = turn {
        turn.give();
    }
    s.end(root);
    match reply? {
        ProviderResponse::Ack => {
            ctx.ledger.saves.fetch_add(1, Ordering::SeqCst);
            Ok(blob)
        }
        other => Err(refused("PutBackup", other)),
    }
}

/// The per-HSM replies of one user's cluster round, as `finish` takes
/// them. Transport-fault and fail-stop refusals are skipped exactly as
/// in `remote::recover`; any other refusal fails the attempt.
fn shares(items: Vec<(u64, HsmResponse)>) -> Result<Vec<RecoveryResponse>, OpError> {
    let mut out = Vec::with_capacity(items.len());
    for (id, item) in items {
        match item {
            HsmResponse::RecoveryShare { response, .. } => out.push(response),
            HsmResponse::Error(e) if e.is_transport_fault() || e.code == codes::UNAVAILABLE => {}
            HsmResponse::Error(e) => return Err(OpError::Failed(format!("HSM {id}: {e}"))),
            _ => return Err(OpError::Failed("expected a RecoveryShare item".to_string())),
        }
    }
    Ok(out)
}

fn insert_log<E: ProviderEndpoint>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    attempt: &RecoveryAttempt,
) -> Result<(), OpError> {
    let (id, value) = attempt.log_entry();
    match s.call(ProviderRequest::InsertLog { id, value })? {
        ProviderResponse::Ack => {
            ctx.ledger.inserts.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        other => Err(refused("InsertLog", other)),
    }
}

fn run_epoch<E: ProviderEndpoint>(s: &mut Session<E>, ctx: &Ctx<'_>) -> Result<(), OpError> {
    match s.call(ProviderRequest::RunEpoch)? {
        ProviderResponse::EpochCertified { .. } => {
            ctx.ledger.epochs.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        other => Err(refused("RunEpoch", other)),
    }
}

fn prove<E: ProviderEndpoint>(
    s: &mut Session<E>,
    attempt: &RecoveryAttempt,
) -> Result<Vec<(u64, safetypin_proto::RecoveryRequest)>, OpError> {
    let (id, value) = attempt.log_entry();
    match s.call(ProviderRequest::ProveInclusion { id, value })? {
        ProviderResponse::Inclusion(Some(proof)) => Ok(attempt.requests(&proof)),
        ProviderResponse::Inclusion(None) => Err(OpError::Fatal(
            "a logged attempt has no inclusion proof".to_string(),
        )),
        other => Err(refused("ProveInclusion", other)),
    }
}

/// Fetches the backup and starts the attempt on the user's device.
fn start<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    u: &User,
    pin: &[u8],
    client: Client,
    rng: &mut R,
) -> Result<RecoveryAttempt, OpError> {
    let attempt = remote::fetch_backup(s, &u.name)
        .map_err(OpError::from)
        .and_then(|artifact| {
            s.client("client.start", || {
                client.start_recovery(pin, &artifact.ciphertext, false, rng)
            })
            .map_err(|e| OpError::Failed(format!("start: {e}")))
        });
    s.scaffold(|| drop(client));
    let attempt = attempt?;
    ctx.punctures.charge(&attempt)?;
    Ok(attempt)
}

/// One solo Figure-3 recovery: `FetchBackup` → `InsertLog` →
/// `RunEpoch` → `ProveInclusion` → `Recover` → `finish`. Returns the
/// reconstructed secret (the caller checks it).
pub fn recover_solo<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    user: usize,
    pin: &[u8],
    client: Client,
    rng: &mut R,
    turn: Option<&mut Turn<'_>>,
) -> Result<Vec<u8>, OpError> {
    let root = s.begin("op.recover");
    let out = recover_steps(s, ctx, user, pin, client, rng, turn);
    s.end(root);
    out
}

fn recover_steps<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    user: usize,
    pin: &[u8],
    client: Client,
    rng: &mut R,
    mut turn: Option<&mut Turn<'_>>,
) -> Result<Vec<u8>, OpError> {
    let attempt = start(s, ctx, &ctx.users[user], pin, client, rng)?;
    if let Some(turn) = turn.as_deref_mut() {
        turn.take(s);
    }
    let round = (|| {
        insert_log(s, ctx, &attempt)?;
        run_epoch(s, ctx)?;
        let requests = prove(s, &attempt)?;
        match s.call(ProviderRequest::Recover(requests))? {
            ProviderResponse::Recovered(items) => Ok(items),
            other => Err(refused("Recover", other)),
        }
    })();
    if let Some(turn) = turn {
        turn.give();
    }
    let responses = shares(round?)?;
    s.client("client.finish", || attempt.finish(responses))
        .map_err(|e| OpError::Failed(format!("finish: {e}")))
}

/// One save wave: every user seals on the device, then one
/// `SaveBatch`. Returns each user's uploaded blob, or why it failed.
pub fn save_wave<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    users: &[usize],
    rng: &mut R,
) -> Result<Vec<Result<Vec<u8>, String>>, OpError> {
    let root = s.begin("op.save_wave");
    let mut saves = Vec::with_capacity(users.len());
    for &user in users {
        let u = &ctx.users[user];
        let mut client = s.scaffold(|| ctx.fleet.client(u))?;
        let sealed = s.client("client.seal", || client.backup(&u.pin, &u.secret, 0, rng));
        s.scaffold(|| drop(client));
        let artifact = sealed.map_err(|e| OpError::Fatal(format!("seal: {e}")))?;
        saves.push(SaveRequest {
            username: u.name.clone(),
            blob: remote::encode_artifact(&artifact),
        });
    }
    let reply = s.call(ProviderRequest::SaveBatch(saves.clone()));
    s.end(root);
    let outcomes = match reply? {
        ProviderResponse::SavedBatch(outcomes) if outcomes.len() == saves.len() => outcomes,
        other => return Err(refused("SaveBatch", other)),
    };
    Ok(saves
        .into_iter()
        .zip(outcomes)
        .map(|(save, outcome)| match outcome.error {
            None => {
                ctx.ledger.saves.fetch_add(1, Ordering::SeqCst);
                Ok(save.blob)
            }
            Some(e) => Err(e.to_string()),
        })
        .collect())
}

/// One wave user's reconstructed secret and the clock reading at which
/// it was reconstructed, or why the user's recovery failed.
pub type Recovered = Result<(Vec<u8>, f64), String>;

/// One recovery wave: each user fetches, starts and logs; one epoch;
/// per-user inclusion proofs; one `RecoverBatch`; each user finishes.
pub fn recover_wave<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    users: &[usize],
    rng: &mut R,
) -> Result<Vec<Recovered>, OpError> {
    let root = s.begin("op.recover_wave");
    let out = recover_wave_steps(s, ctx, users, rng);
    s.end(root);
    out
}

fn recover_wave_steps<E: ProviderEndpoint, R: RngCore + CryptoRng>(
    s: &mut Session<E>,
    ctx: &Ctx<'_>,
    users: &[usize],
    rng: &mut R,
) -> Result<Vec<Recovered>, OpError> {
    let mut results: Vec<Recovered> = Vec::with_capacity(users.len());
    let mut attempts = Vec::with_capacity(users.len());
    for &user in users {
        let u = &ctx.users[user];
        let client = s.scaffold(|| ctx.fleet.client(u))?;
        let started = start(s, ctx, u, &u.pin, client, rng).and_then(|attempt| {
            insert_log(s, ctx, &attempt)?;
            Ok(attempt)
        });
        match started {
            Ok(attempt) => {
                attempts.push((results.len(), attempt));
                results.push(Err(String::new()));
            }
            Err(OpError::Failed(e)) => results.push(Err(e)),
            Err(fatal) => return Err(fatal),
        }
    }
    if attempts.is_empty() {
        return Ok(results);
    }
    run_epoch(s, ctx)?;
    let mut batch = Vec::with_capacity(attempts.len());
    for (_, attempt) in &attempts {
        batch.push(prove(s, attempt)?);
    }
    let per_user = match s.call(ProviderRequest::RecoverBatch(batch))? {
        ProviderResponse::RecoveredBatch(per_user) if per_user.len() == attempts.len() => per_user,
        other => return Err(refused("RecoverBatch", other)),
    };
    for ((slot, attempt), items) in attempts.into_iter().zip(per_user) {
        results[slot] = match shares(items) {
            Ok(responses) => s
                .client("client.finish", || attempt.finish(responses))
                .map(|pt| (pt, s.clock.now()))
                .map_err(|e| format!("finish: {e}")),
            Err(OpError::Failed(e)) => Err(e),
            Err(fatal) => return Err(fatal),
        };
    }
    Ok(results)
}
