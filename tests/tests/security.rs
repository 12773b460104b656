//! Security-property integration tests: the paper's attack scenarios
//! executed with real cryptography against the full stack.

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::client::{remote, ClientError};
use safetypin::lhe::select;
use safetypin::proto::{
    codes, Direct, ErrorReply, HsmResponse, ProtoError, ServeTrafficFn, Traffic, TrafficReply,
    Transport, TransportStats,
};
use safetypin::{Deployment, DeploymentError, RecoverManyOptions, RecoverySession, SystemParams};

#[test]
fn adaptive_compromise_misses_hidden_cluster() {
    // Property 1 (§3): an attacker that sees the ciphertext and then
    // corrupts f_secret·N HSMs of its choice learns fewer than t shares
    // (with overwhelming probability at sound parameters).
    let mut rng = StdRng::seed_from_u64(11);
    let total = 64u64;
    let params = SystemParams::test_small(total);
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    let mut victim = d.new_client(b"victim").unwrap();
    let artifact = victim
        .backup(b"852963", b"crown jewels", 0, &mut rng)
        .unwrap();

    // The attacker (without the PIN) cannot do better than guessing a
    // corrupt set; the ciphertext's salt is public but useless alone.
    let corrupt: Vec<u64> = (0..total / 16).collect();
    let mut captured_state = Vec::new();
    for &id in &corrupt {
        captured_state.push(d.datacenter.hsm_mut(id).unwrap().compromise());
    }
    let cluster = select(&params.lhe, &artifact.salt, b"852963");
    let captured_shares = cluster.iter().filter(|i| corrupt.contains(i)).count();
    assert!(
        captured_shares < params.lhe.threshold,
        "attacker captured {captured_shares} shares"
    );
}

#[test]
fn forward_secrecy_total_compromise_after_recovery() {
    // Property (Fig 4): after recovery completes, even an attacker with
    // EVERY HSM's full state cannot decrypt the recovered ciphertext.
    let mut rng = StdRng::seed_from_u64(12);
    let params = SystemParams::test_small(16);
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    let mut user = d.new_client(b"fs-user").unwrap();
    let artifact = user.backup(b"741852", b"ephemeral", 0, &mut rng).unwrap();
    let outcome = d.recover(&user, b"741852", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"ephemeral");

    // Total compromise: exfiltrate all 16 HSMs.
    for id in 0..16u64 {
        let _ = d.datacenter.hsm_mut(id).unwrap().compromise();
    }
    // The ciphertext is dead. (Compromised-but-running HSMs still answer;
    // their keys are punctured, so answers are failures.)
    let replay = d.recover(&user, b"741852", &artifact, &mut rng);
    assert!(replay.is_err());
}

#[test]
fn punctured_series_dead_for_all_generations() {
    // §8: recovering ANY ciphertext of a same-salt series revokes every
    // other generation too.
    let mut rng = StdRng::seed_from_u64(13);
    let params = SystemParams::test_small(16);
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    let mut user = d.new_client(b"series-user").unwrap();
    let gen1 = user
        .backup(b"101010", b"generation 1", 0, &mut rng)
        .unwrap();
    let gen2 = user
        .backup(b"101010", b"generation 2", 0, &mut rng)
        .unwrap();
    assert_eq!(gen1.salt, gen2.salt);

    let outcome = d.recover(&user, b"101010", &gen2, &mut rng).unwrap();
    assert_eq!(outcome.message, b"generation 2");
    // gen1 is unrecoverable even though its own log identifier was never
    // consumed — puncturing killed the tag. (A different username would be
    // needed to even log an attempt; use a replacement-device client.)
    let replacement = d.new_client(b"series-user-replacement").unwrap();
    assert!(d.recover(&replacement, b"101010", &gen1, &mut rng).is_err());
}

#[test]
fn provider_cannot_fake_inclusion_or_mutate_log() {
    use safetypin::authlog::log::Log;
    use safetypin::authlog::trie::MerkleTrie;
    // The HSM-side check: an inclusion proof for a value never inserted
    // must not verify against the certified digest.
    let mut log = Log::new();
    log.insert(b"honest", b"value").unwrap();
    let digest = log.digest();
    let proof = log.prove_includes(b"honest", b"value").unwrap();
    assert!(MerkleTrie::does_include(
        &digest, b"honest", b"value", &proof
    ));
    assert!(!MerkleTrie::does_include(
        &digest, b"honest", b"forged", &proof
    ));
    assert!(!MerkleTrie::does_include(
        &digest, b"other", b"value", &proof
    ));
}

#[test]
fn wrong_pin_learns_nothing_but_burns_attempt() {
    // With the wrong PIN the client contacts the wrong HSMs; their
    // decryptions fail and no share material leaks. The HSMs involved
    // puncture nothing useful... but the log attempt is burned.
    let mut rng = StdRng::seed_from_u64(14);
    let params = SystemParams::test_small(32);
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    let mut user = d.new_client(b"wp-user").unwrap();
    let artifact = user.backup(b"123123", b"secret", 0, &mut rng).unwrap();

    let wrong = d.recover(&user, b"321321", &artifact, &mut rng);
    assert!(wrong.is_err());

    // The real cluster's HSMs were never punctured for this tag: a fresh
    // identity (replacement device) with the RIGHT pin still recovers.
    let replacement = d.new_client(b"wp-user-replacement").unwrap();
    let result = d.recover(&replacement, b"123123", &artifact, &mut rng);
    // The replacement authenticates as a different username, so the HSM
    // username binding refuses — which is exactly right: nobody but the
    // original account can use the ciphertext.
    assert!(result.is_err());

    // The original account is locked out by the one-attempt log. This is
    // the documented §8 failure mode motivating per-recovery keys.
    let second = d.recover(&user, b"123123", &artifact, &mut rng);
    assert!(second.is_err());
}

/// A `Direct` transport that rewrites the first `RecoveryShare` reply of
/// every cluster round into a `DECRYPT_FAILED` refusal: one device whose
/// Bloom filter reports a false positive for the user's tag.
#[derive(Default)]
struct OneShareFails {
    inner: Direct,
}

impl Transport for OneShareFails {
    fn name(&self) -> &'static str {
        "one-share-fails"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        let mut reply = self.inner.round(traffic, serve)?;
        let replies: Vec<&mut HsmResponse> = match &mut reply {
            TrafficReply::Batch(items) => items.iter_mut().map(|(_, r)| r).collect(),
            TrafficReply::Grouped(groups) => groups.iter_mut().flat_map(|(_, g)| g).collect(),
            _ => Vec::new(),
        };
        if let Some(share) = replies
            .into_iter()
            .find(|r| matches!(r, HsmResponse::RecoveryShare { .. }))
        {
            *share = HsmResponse::Error(ErrorReply::new(
                codes::DECRYPT_FAILED,
                "bloom filter false positive",
            ));
        }
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn take_stats(&mut self) -> TransportStats {
        self.inner.take_stats()
    }
}

fn one_bad_share_deployment(seed: u64) -> (Deployment, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Deployment::provision(SystemParams::test_small(32), &mut rng).unwrap();
    d.datacenter
        .set_transport(Box::new(OneShareFails::default()));
    (d, rng)
}

#[test]
fn one_bad_share_does_not_sink_recovery() {
    let (mut d, mut rng) = one_bad_share_deployment(16);
    let mut user = d.new_client(b"fp-user").unwrap();
    let artifact = user.backup(b"246810", b"secret", 0, &mut rng).unwrap();
    let logged = d.datacenter.log_entries().len();

    let outcome = d.recover(&user, b"246810", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"secret");
    assert_eq!(outcome.responders, outcome.contacted - 1);
    assert_eq!(d.datacenter.log_entries().len(), logged + 1);
}

#[test]
fn one_bad_share_does_not_sink_remote_recovery() {
    let (mut d, mut rng) = one_bad_share_deployment(17);
    let mut serve_rng = StdRng::seed_from_u64(170);
    let mut user = d.new_client(b"fp-remote-user").unwrap();
    let mut endpoint = |request| Ok(d.datacenter.handle(request, &mut serve_rng));
    let artifact = remote::save(&mut endpoint, &mut user, b"246810", b"secret", &mut rng).unwrap();
    let logged = d.datacenter.log_entries().len();

    let mut endpoint = |request| Ok(d.datacenter.handle(request, &mut serve_rng));
    let secret = remote::recover(&mut endpoint, &user, b"246810", &artifact, &mut rng).unwrap();
    assert_eq!(secret, b"secret");
    assert_eq!(d.datacenter.log_entries().len(), logged + 1);
}

#[test]
fn one_bad_share_does_not_sink_a_recovery_wave() {
    let (mut d, mut rng) = one_bad_share_deployment(18);
    let mut users = Vec::new();
    for i in 0..4 {
        let mut user = d.new_client(format!("fp-wave-{i}").as_bytes()).unwrap();
        let artifact = user.backup(b"246810", b"secret", 0, &mut rng).unwrap();
        users.push((user, artifact));
    }
    let logged = d.datacenter.log_entries().len();

    let sessions: Vec<RecoverySession<'_>> = users
        .iter()
        .map(|(client, artifact)| RecoverySession {
            client,
            pin: b"246810",
            artifact,
        })
        .collect();
    let outcomes = d.recover_many(&sessions, RecoverManyOptions::default(), &mut rng);
    let mut short = 0;
    for outcome in outcomes {
        let outcome = outcome.unwrap();
        assert_eq!(outcome.message, b"secret");
        short += outcome.contacted - outcome.responders;
    }
    assert_eq!(short, 1, "exactly one share was rewritten");
    assert_eq!(d.datacenter.log_entries().len(), logged + users.len());
}

#[test]
fn wrong_pin_fails_for_want_of_shares_and_burns_one_attempt() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut d = Deployment::provision(SystemParams::test_small(32), &mut rng).unwrap();
    let mut serve_rng = StdRng::seed_from_u64(190);

    let mut user = d.new_client(b"wp-local").unwrap();
    let artifact = user.backup(b"123123", b"secret", 0, &mut rng).unwrap();
    let logged = d.datacenter.log_entries().len();
    let wrong = d.recover(&user, b"321321", &artifact, &mut rng);
    assert!(
        matches!(
            wrong,
            Err(DeploymentError::Client(ClientError::NotEnoughShares { .. }))
        ),
        "{wrong:?}"
    );
    assert_eq!(d.datacenter.log_entries().len(), logged + 1);

    let mut user = d.new_client(b"wp-remote").unwrap();
    let mut endpoint = |request| Ok(d.datacenter.handle(request, &mut serve_rng));
    let artifact = remote::save(&mut endpoint, &mut user, b"123123", b"secret", &mut rng).unwrap();
    let logged = d.datacenter.log_entries().len();
    let mut endpoint = |request| Ok(d.datacenter.handle(request, &mut serve_rng));
    let wrong = remote::recover(&mut endpoint, &user, b"321321", &artifact, &mut rng);
    assert!(
        matches!(
            wrong,
            Err(remote::RemoteError::Client(
                ClientError::NotEnoughShares { .. }
            ))
        ),
        "{wrong:?}"
    );
    assert_eq!(d.datacenter.log_entries().len(), logged + 1);
}

#[test]
fn compromised_hsm_cannot_forge_epoch_quorum() {
    // An attacker holding f_secret·N BLS keys cannot certify a forged
    // digest transition: the quorum requires nearly all HSMs.
    let mut rng = StdRng::seed_from_u64(15);
    let params = SystemParams::scaled(64, 8, 256).unwrap();
    let mut d = Deployment::provision(params, &mut rng).unwrap();
    d.datacenter.insert_log(b"u", b"v").unwrap();
    let outcome = d.datacenter.run_epoch().unwrap();

    // Steal 4 HSMs' signing keys (1/16 of 64).
    let mut stolen = Vec::new();
    for id in 0..4u64 {
        stolen.push(d.datacenter.hsm_mut(id).unwrap().compromise());
    }
    // Forge a message advancing to an attacker-chosen digest and sign it
    // with the stolen keys only.
    let mut forged = outcome.message;
    forged.old_digest = outcome.message.new_digest;
    forged.new_digest = [0x66; 32];
    let sigs: Vec<_> = stolen
        .iter()
        .map(|s| s.sig_sk.sign(&forged.signing_bytes()))
        .collect();
    let agg = safetypin::multisig::aggregate_signatures(&sigs).unwrap();
    let signers: Vec<usize> = (0..4).collect();
    // Any honest HSM rejects: quorum is 63 of 64.
    let err = d
        .datacenter
        .hsm_mut(10)
        .unwrap()
        .accept_update(&forged, &signers, &agg)
        .unwrap_err();
    assert!(matches!(
        err,
        safetypin::hsm::HsmError::QuorumTooSmall { .. }
    ));
}

#[test]
fn exfiltrated_storage_cannot_resurrect_deleted_shares() {
    // Full-stack version of the seckv rollback test: snapshot the
    // provider-side blocks before recovery, restore them afterwards, and
    // observe that the punctured HSM still cannot decrypt (fresh tree
    // keys chain from the new root key inside the HSM).
    use safetypin::bfe;
    use safetypin::seckv::{BlockStore, MemStore};
    let mut rng = StdRng::seed_from_u64(16);
    let params = bfe::BfeParams::new(128, 3).unwrap();
    let mut store = MemStore::new();
    let (pk, mut sk, _) = bfe::keygen(params, &mut store, &mut rng).unwrap();
    let ct = bfe::encrypt(&pk, b"tag", b"ctx", b"share", &mut rng);

    let snapshot = store.snapshot();
    let (_, _) = sk
        .decrypt_and_puncture(&mut store, b"tag", b"ctx", &ct, &mut rng)
        .unwrap();

    // Adversarial provider restores the pre-puncture blocks.
    for (addr, block) in snapshot {
        store.put(addr, &block);
    }
    assert!(
        sk.decrypt(&mut store, b"tag", b"ctx", &ct).is_err(),
        "rollback must not resurrect punctured slots"
    );
}
