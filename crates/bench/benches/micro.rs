//! Criterion microbenchmarks for the Table 7 operations on the host.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin_primitives::hashes::{hash_parts, hmac_sha256, Domain};
use safetypin_primitives::{aead, elgamal, shamir};

fn bench_micro(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);

    // g^x on P-256.
    {
        use p256::elliptic_curve::Field;
        use p256::{FixedBaseTable, ProjectivePoint, Scalar};
        let s = Scalar::random(&mut rng);
        let p = ProjectivePoint::GENERATOR;
        c.bench_function("p256_point_mul", |b| b.iter(|| std::hint::black_box(p * s)));
        // The windowed fixed-base path used by keygen-style g^x.
        let table = FixedBaseTable::generator();
        c.bench_function("p256_fixed_base_mul", |b| {
            b.iter(|| std::hint::black_box(table.mul(&s)))
        });
        // The shared-scalar multi-base path used by BFE encrypt (k=4).
        let bases: Vec<ProjectivePoint> = (0..4).map(|_| p * Scalar::random(&mut rng)).collect();
        c.bench_function("p256_mul_many_k4", |b| {
            b.iter(|| std::hint::black_box(p256::mul_many(&bases, &s)))
        });
    }

    // Pairing on BLS12-381.
    {
        use bls12_381::{pairing, G1Affine, G2Affine};
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        c.bench_function("bls12_381_pairing", |b| {
            b.iter(|| std::hint::black_box(pairing(&g1, &g2)))
        });
    }

    // Hashed-ElGamal encrypt/decrypt.
    {
        let kp = elgamal::KeyPair::generate(&mut rng);
        let ct = elgamal::encrypt(&kp.pk, b"ctx", b"a 32-byte share payload........", &mut rng);
        let mut rng2 = StdRng::seed_from_u64(2);
        c.bench_function("elgamal_encrypt", |b| {
            b.iter(|| std::hint::black_box(elgamal::encrypt(&kp.pk, b"ctx", b"share", &mut rng2)))
        });
        c.bench_function("elgamal_decrypt", |b| {
            b.iter(|| std::hint::black_box(elgamal::decrypt(&kp.sk, b"ctx", &ct).unwrap()))
        });
    }

    // Symmetric primitives.
    {
        let key = aead::AeadKey::from_bytes([1u8; 16]);
        let mut rng2 = StdRng::seed_from_u64(3);
        let ct = aead::seal(&key, b"", &[0u8; 1024], &mut rng2);
        c.bench_function("aes_gcm_seal_1k", |b| {
            b.iter(|| std::hint::black_box(aead::seal(&key, b"", &[0u8; 1024], &mut rng2)))
        });
        c.bench_function("aes_gcm_open_1k", |b| {
            b.iter(|| std::hint::black_box(aead::open(&key, b"", &ct).unwrap()))
        });
        // The outsourced-storage node shape: a 64-byte block under a fresh
        // per-node key with a 24-byte position binding, where the per-call
        // key schedule and tag setup dominate the cost.
        let node = [5u8; 64];
        let aad = [9u8; 24];
        let node_ct = aead::seal(&key, &aad, &node, &mut rng2);
        c.bench_function("aes_gcm_seal_64", |b| {
            b.iter(|| std::hint::black_box(aead::seal(&key, &aad, &node, &mut rng2)))
        });
        c.bench_function("aes_gcm_open_64", |b| {
            b.iter(|| std::hint::black_box(aead::open(&key, &aad, &node_ct).unwrap()))
        });
        c.bench_function("hmac_sha256", |b| {
            b.iter(|| std::hint::black_box(hmac_sha256(b"key", &[0u8; 32])))
        });
        c.bench_function("sha256_domain_hash", |b| {
            b.iter(|| std::hint::black_box(hash_parts(Domain::MerkleLeaf, &[&[0u8; 64]])))
        });
    }

    // Shamir sharing at paper parameters (t=20, n=40, 16-byte secret).
    {
        let mut rng2 = StdRng::seed_from_u64(4);
        c.bench_function("shamir_share_t20_n40", |b| {
            b.iter(|| std::hint::black_box(shamir::share(&[7u8; 16], 20, 40, &mut rng2).unwrap()))
        });
        let shares = shamir::share(&[7u8; 16], 20, 40, &mut rng).unwrap();
        c.bench_function("shamir_reconstruct_t20", |b| {
            b.iter(|| std::hint::black_box(shamir::reconstruct(&shares[..20], 20).unwrap()))
        });
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_micro
);
criterion_main!(benches);
