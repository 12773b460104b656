//! Seeded workload generation: every username, PIN, secret and arrival
//! time derives from the workload seed, so one seed replays one run.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloRecover,
    Wave,
    Mix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "solo-recover" => Some(Self::SoloRecover),
            "wave" => Some(Self::Wave),
            "mix" => Some(Self::Mix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::SoloRecover => "solo-recover",
            Self::Wave => "wave",
            Self::Mix => "mix",
        }
    }
}

/// One simulated user: a username, a six-digit PIN and the 32-byte
/// backup key that SafetyPin protects (the bulk backup encrypted under
/// that key never reaches the HSMs, so it is not simulated).
#[derive(Debug, Clone)]
pub struct User {
    pub name: Vec<u8>,
    pub pin: Vec<u8>,
    pub secret: Vec<u8>,
}

/// SplitMix64 finalizer: decorrelates per-stream seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pin_string(v: u64) -> Vec<u8> {
    format!("{:06}", v % 1_000_000).into_bytes()
}

impl User {
    fn generate(workload: Workload, seed: u64, index: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x05E2_0000 + index as u64));
        let mut secret = vec![0u8; 32];
        rng.fill_bytes(&mut secret);
        Self {
            name: format!("{}-{seed}-{index}", workload.name()).into_bytes(),
            pin: pin_string(rng.next_u64()),
            secret,
        }
    }

    /// A PIN that differs from the user's own.
    pub fn wrong_pin(&self) -> Vec<u8> {
        let own: u64 = std::str::from_utf8(&self.pin)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        pin_string(own + 1)
    }
}

/// One open-loop operation of the `mix` workload.
#[derive(Debug, Clone, Copy)]
pub struct MixOp {
    /// Position in due order (also the ticket of the client log lock
    /// and the index of the operation's device RNG stream).
    pub seq: usize,
    pub recover: bool,
    pub user: usize,
    /// Seconds after the start of the timed phase.
    pub due: f64,
}

/// What the timed phase runs.
#[derive(Debug, Clone)]
pub enum Timed {
    /// One user at a time recovers (closed loop).
    Solo(Vec<usize>),
    /// Alternating (save wave, recover wave) cycles.
    Waves(Vec<(Vec<usize>, Vec<usize>)>),
    /// Poisson arrivals of solo saves and solo recoveries.
    Mix(Vec<MixOp>),
}

/// A whole generated run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub users: Vec<User>,
    /// Users saved during set-up, in order.
    pub population: Vec<usize>,
    /// Set-up saves run as solo `PutBackup`s (else `SaveBatch` waves).
    pub population_solo: bool,
    pub timed: Timed,
    /// A saved user who never recovers; the closing wrong-PIN attempt
    /// runs against this user's backup.
    pub wrong_pin_user: usize,
}

/// Operation counts for one run (fixed, so every commit takes the same
/// number of samples).
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub solo_recoveries: usize,
    pub wave_size: usize,
    pub wave_cycles: usize,
    pub mix_saves: usize,
    pub mix_recoveries: usize,
    /// Seconds over which the mix arrivals are spread.
    pub mix_seconds: f64,
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, counts: &Counts) -> Self {
        let user = |i: usize| User::generate(workload, seed, i);
        match workload {
            Workload::SoloRecover => {
                let n = counts.solo_recoveries;
                Self {
                    users: (0..=n).map(user).collect(),
                    population: (0..=n).collect(),
                    population_solo: true,
                    timed: Timed::Solo((0..n).collect()),
                    wrong_pin_user: n,
                }
            }
            Workload::Wave => {
                let w = counts.wave_size;
                let cycles = counts.wave_cycles;
                // Wave c saves users w(c+1)..w(c+2) and recovers the users
                // saved one wave earlier; the set-up wave saves 0..w.
                let waves = (0..cycles)
                    .map(|c| {
                        (
                            (w * (c + 1)..w * (c + 2)).collect(),
                            (w * c..w * (c + 1)).collect(),
                        )
                    })
                    .collect();
                Self {
                    users: (0..w * (cycles + 1)).map(user).collect(),
                    population: (0..w).collect(),
                    population_solo: false,
                    timed: Timed::Waves(waves),
                    wrong_pin_user: w * (cycles + 1) - 1,
                }
            }
            Workload::Mix => {
                let (ns, nr) = (counts.mix_saves, counts.mix_recoveries);
                let total = ns + nr;
                let mut rng = StdRng::seed_from_u64(mix(seed, 0x0A22_1FA1));
                // Which arrivals are recoveries: a seeded shuffle, so the
                // counts stay fixed while the interleaving varies by seed.
                let mut kinds: Vec<bool> = (0..total).map(|i| i < nr).collect();
                kinds.shuffle(&mut rng);
                // A Poisson process conditioned on `total` arrivals in the
                // run: cumulative exponential gaps, scaled so that the
                // arrivals span the run exactly.
                let mut arrivals = Vec::with_capacity(total + 1);
                let mut sum = 0.0;
                for _ in 0..=total {
                    let u: f64 = rng.gen();
                    sum += -(1.0 - u).ln();
                    arrivals.push(sum);
                }
                let (mut next_save, mut next_recover) = (nr + 1, 0);
                let mut ops = Vec::with_capacity(total);
                for (seq, recover) in kinds.into_iter().enumerate() {
                    let user = if recover {
                        next_recover += 1;
                        next_recover - 1
                    } else {
                        next_save += 1;
                        next_save - 1
                    };
                    ops.push(MixOp {
                        seq,
                        recover,
                        user,
                        due: counts.mix_seconds * arrivals[seq] / sum,
                    });
                }
                Self {
                    users: (0..nr + 1 + ns).map(user).collect(),
                    population: (0..=nr).collect(),
                    population_solo: false,
                    timed: Timed::Mix(ops),
                    wrong_pin_user: nr,
                }
            }
        }
    }

    /// How many units the timed phase has: solo recoveries, wave cycles
    /// or `mix` operations.
    pub fn timed_units(&self) -> usize {
        match &self.timed {
            Timed::Solo(users) => users.len(),
            Timed::Waves(waves) => waves.len(),
            Timed::Mix(ops) => ops.len(),
        }
    }

    /// Recovery attempts the run makes, the closing wrong-PIN one included.
    pub fn recovery_attempts(&self) -> usize {
        1 + match &self.timed {
            Timed::Solo(users) => users.len(),
            Timed::Waves(waves) => waves.iter().map(|(_, r)| r.len()).sum(),
            Timed::Mix(ops) => ops.iter().filter(|op| op.recover).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> Counts {
        Counts {
            solo_recoveries: 5,
            wave_size: 4,
            wave_cycles: 3,
            mix_saves: 20,
            mix_recoveries: 2,
            mix_seconds: 1.0,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        for w in [Workload::SoloRecover, Workload::Wave, Workload::Mix] {
            let a = Plan::generate(w, 7, &counts());
            let b = Plan::generate(w, 7, &counts());
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let c = Plan::generate(w, 8, &counts());
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn recoveries_only_touch_saved_users() {
        let plan = Plan::generate(Workload::Mix, 3, &counts());
        let Timed::Mix(ops) = &plan.timed else {
            panic!("mix plan")
        };
        assert_eq!(ops.iter().filter(|op| op.recover).count(), 2);
        for op in ops.iter().filter(|op| op.recover) {
            assert!(plan.population.contains(&op.user));
            assert_ne!(op.user, plan.wrong_pin_user);
        }
        assert!(ops.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
