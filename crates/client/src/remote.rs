//! Client flows against a **remote** provider.
//!
//! Everything in the parent module works on in-process data the caller
//! already holds (enrollment records, inclusion proofs, HSM responses).
//! This module drives the same Figure 3 protocol against a provider
//! reached through a fallible request channel — one
//! [`ProviderRequest`] out, one [`ProviderResponse`] back — which is
//! exactly what `safetypin_proto::Tcp` offers against a `safetypind`
//! server:
//!
//! 1. [`connect`]: fetch the provider's [`StatusReport`] (which carries
//!    the fleet's LHE parameters) and the enrollment records, and build
//!    a [`Client`] from them — a bare device needs nothing but the
//!    server address and a username.
//! 2. [`save`]: produce a backup locally and upload it under the
//!    username ([`ProviderRequest::PutBackup`]).
//! 3. [`recover`]: fetch the stored backup, then run log insertion →
//!    epoch → inclusion proof → cluster recovery over the channel and
//!    reconstruct the secret.
//!
//! Failures stay typed end to end: a provider refusal arrives as
//! [`RemoteError::Refused`] carrying the server's [`ErrorReply`]
//! (stable code + detail), transport failures as
//! [`RemoteError::Transport`], and local reconstruction failures as
//! [`RemoteError::Client`] — each with its `source()` chain intact.

use safetypin_lhe::{LheParams, Salt};
use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Reader, Writer};
use safetypin_proto::{
    codes, ErrorReply, HsmResponse, ProtoError, ProviderRequest, ProviderResponse, StatusReport,
};

use crate::{BackupArtifact, Client, ClientError};

pub use crate::retry::{RetryPolicy, RetryStats, Retrying};

/// A fallible one-request/one-response channel to a provider.
///
/// Implemented by `safetypin_proto::Tcp` (a pooled socket connection to
/// `safetypind`) and by any `FnMut(ProviderRequest) -> Result<...>`
/// closure — the latter lets tests drive these flows against an
/// in-process `Deployment` without a socket.
pub trait ProviderEndpoint {
    /// Sends one request and returns the provider's reply.
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError>;
}

impl ProviderEndpoint for safetypin_proto::Tcp {
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        safetypin_proto::Tcp::call(self, request)
    }
}

impl<F> ProviderEndpoint for F
where
    F: FnMut(ProviderRequest) -> Result<ProviderResponse, ProtoError>,
{
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        self(request)
    }
}

/// Errors from the remote flows.
#[derive(Debug)]
pub enum RemoteError {
    /// Local client-side failure (bad enrollments, reconstruction).
    Client(ClientError),
    /// The channel failed (socket error, frame violation, codec error).
    Transport(ProtoError),
    /// The provider answered with a typed refusal.
    Refused(ErrorReply),
    /// The provider answered with a well-formed message of the wrong
    /// kind for the request.
    Protocol(&'static str),
    /// No backup is stored under the requested username.
    NoBackup,
}

impl core::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RemoteError::Client(e) => write!(f, "client: {e}"),
            RemoteError::Transport(e) => write!(f, "transport: {e}"),
            RemoteError::Refused(e) => write!(f, "provider refused: {e}"),
            RemoteError::Protocol(what) => write!(f, "protocol violation: {what}"),
            RemoteError::NoBackup => write!(f, "no backup stored under this username"),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Client(e) => Some(e),
            RemoteError::Transport(e) => Some(e),
            RemoteError::Refused(_) | RemoteError::Protocol(_) | RemoteError::NoBackup => None,
        }
    }
}

impl From<ClientError> for RemoteError {
    fn from(e: ClientError) -> Self {
        RemoteError::Client(e)
    }
}

impl From<ProtoError> for RemoteError {
    fn from(e: ProtoError) -> Self {
        RemoteError::Transport(e)
    }
}

/// Fetches the provider's status report.
pub fn fetch_status<E: ProviderEndpoint>(endpoint: &mut E) -> Result<StatusReport, RemoteError> {
    match endpoint.call(ProviderRequest::Status)? {
        ProviderResponse::Status(report) => Ok(report),
        ProviderResponse::Error(e) => Err(RemoteError::Refused(e)),
        _ => Err(RemoteError::Protocol("expected a Status reply")),
    }
}

/// Builds a [`Client`] from nothing but the channel and a username: the
/// LHE parameters come from the provider's [`StatusReport`], the fleet
/// public keys from [`ProviderRequest::FetchEnrollments`]. The client
/// verifies every enrollment's proof of possession itself, exactly as
/// in [`Client::new`] — the provider is untrusted either way.
pub fn connect<E: ProviderEndpoint>(
    endpoint: &mut E,
    username: &[u8],
) -> Result<Client, RemoteError> {
    let status = fetch_status(endpoint)?;
    let params = LheParams::new(
        status.fleet_size,
        status.cluster as usize,
        status.threshold as usize,
        status.pin_space,
    )
    .map_err(|e| RemoteError::Client(ClientError::Crypto(e)))?;
    let enrollments = match endpoint.call(ProviderRequest::FetchEnrollments)? {
        ProviderResponse::Enrollments(list) => list,
        ProviderResponse::Error(e) => return Err(RemoteError::Refused(e)),
        _ => return Err(RemoteError::Protocol("expected an Enrollments reply")),
    };
    Ok(Client::new(username, params, enrollments)?)
}

/// Creates a backup of `secret` under `pin` and uploads it to the
/// provider's blob store, keyed by the client's username. Returns the
/// artifact (the caller may also keep it locally, but [`recover`] works
/// from the uploaded copy alone).
pub fn save<E: ProviderEndpoint, R: rand::RngCore + rand::CryptoRng>(
    endpoint: &mut E,
    client: &mut Client,
    pin: &[u8],
    secret: &[u8],
    rng: &mut R,
) -> Result<BackupArtifact, RemoteError> {
    let artifact = client.backup(pin, secret, 0, rng)?;
    let request = ProviderRequest::PutBackup {
        username: client.username().to_vec(),
        blob: encode_artifact(&artifact),
    };
    match endpoint.call(request)? {
        ProviderResponse::Ack => Ok(artifact),
        ProviderResponse::Error(e) => Err(RemoteError::Refused(e)),
        _ => Err(RemoteError::Protocol("expected an Ack reply")),
    }
}

/// Fetches the backup blob stored under `username`.
pub fn fetch_backup<E: ProviderEndpoint>(
    endpoint: &mut E,
    username: &[u8],
) -> Result<BackupArtifact, RemoteError> {
    match endpoint.call(ProviderRequest::FetchBackup {
        username: username.to_vec(),
    })? {
        ProviderResponse::Backup(Some(blob)) => decode_artifact(&blob),
        ProviderResponse::Backup(None) => Err(RemoteError::NoBackup),
        ProviderResponse::Error(e) => Err(RemoteError::Refused(e)),
        _ => Err(RemoteError::Protocol("expected a Backup reply")),
    }
}

/// Runs the full Figure 3 recovery over the channel: log the attempt,
/// run an epoch, fetch the inclusion proof, contact the cluster,
/// reconstruct. Per-HSM refusals with transport-fault, fail-stop or
/// decryption-failure codes are skipped: recovery succeeds as long as
/// the surviving shares reach the threshold, and fails with
/// [`ClientError::NotEnoughShares`] otherwise (a wrong PIN reaches
/// only HSMs that cannot decrypt). Any other per-HSM refusal is
/// surfaced as [`RemoteError::Refused`].
pub fn recover<E: ProviderEndpoint, R: rand::RngCore + rand::CryptoRng>(
    endpoint: &mut E,
    client: &Client,
    pin: &[u8],
    artifact: &BackupArtifact,
    rng: &mut R,
) -> Result<Vec<u8>, RemoteError> {
    let attempt = client.start_recovery(pin, &artifact.ciphertext, false, rng)?;

    // Step 3: log the attempt (one per identifier).
    let (id, value) = attempt.log_entry();
    match endpoint.call(ProviderRequest::InsertLog { id, value })? {
        ProviderResponse::Ack => {}
        ProviderResponse::Error(e) => return Err(RemoteError::Refused(e)),
        _ => return Err(RemoteError::Protocol("expected an Ack reply")),
    }

    // Step 4: certify the epoch.
    match endpoint.call(ProviderRequest::RunEpoch)? {
        ProviderResponse::EpochCertified { .. } => {}
        ProviderResponse::Error(e) => return Err(RemoteError::Refused(e)),
        _ => return Err(RemoteError::Protocol("expected an EpochCertified reply")),
    }

    // Step 5: the inclusion proof.
    let (id, value) = attempt.log_entry();
    let inclusion = match endpoint.call(ProviderRequest::ProveInclusion { id, value })? {
        ProviderResponse::Inclusion(Some(proof)) => proof,
        ProviderResponse::Inclusion(None) => {
            return Err(RemoteError::Refused(ErrorReply::new(
                codes::LOG_REFUSED,
                "the logged attempt has no inclusion proof",
            )))
        }
        ProviderResponse::Error(e) => return Err(RemoteError::Refused(e)),
        _ => return Err(RemoteError::Protocol("expected an Inclusion reply")),
    };

    // Steps 6–7: one recovery round against the cluster.
    let requests = attempt.requests(&inclusion);
    let items = match endpoint.call(ProviderRequest::Recover(requests))? {
        ProviderResponse::Recovered(items) => items,
        ProviderResponse::Error(e) => return Err(RemoteError::Refused(e)),
        _ => return Err(RemoteError::Protocol("expected a Recovered reply")),
    };
    let mut responses = Vec::new();
    for (_, resp) in items {
        match resp {
            HsmResponse::RecoveryShare { response, .. } => responses.push(response),
            // A DECRYPT_FAILED share (e.g. a Bloom-filter false positive
            // on one device) costs that share, not the recovery.
            HsmResponse::Error(e)
                if e.is_transport_fault()
                    || e.code == codes::UNAVAILABLE
                    || e.code == codes::DECRYPT_FAILED =>
            {
                continue
            }
            HsmResponse::Error(e) => return Err(RemoteError::Refused(e)),
            _ => return Err(RemoteError::Protocol("expected a RecoveryShare item")),
        }
    }
    Ok(attempt.finish(responses)?)
}

/// Serializes an artifact for the provider's blob store:
/// `ciphertext ‖ salt ‖ epoch` in the strict wire codec.
pub fn encode_artifact(artifact: &BackupArtifact) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&artifact.ciphertext);
    w.put_bytes(&artifact.salt.0);
    w.put_u64(artifact.epoch);
    w.into_bytes()
}

/// Parses a stored artifact blob (strict: trailing bytes rejected).
pub fn decode_artifact(blob: &[u8]) -> Result<BackupArtifact, RemoteError> {
    fn wire(e: WireError) -> RemoteError {
        RemoteError::Client(ClientError::Crypto(
            safetypin_primitives::CryptoError::Wire(e),
        ))
    }
    let mut r = Reader::new(blob);
    let ciphertext = r.get_bytes().map_err(wire)?.to_vec();
    let salt_bytes: [u8; 32] = r
        .get_bytes()
        .map_err(wire)?
        .try_into()
        .map_err(|_| wire(WireError::LengthOutOfRange))?;
    let epoch = r.get_u64().map_err(wire)?;
    if r.remaining() != 0 {
        return Err(wire(WireError::TrailingBytes));
    }
    Ok(BackupArtifact {
        ciphertext,
        salt: Salt(salt_bytes),
        epoch,
    })
}
