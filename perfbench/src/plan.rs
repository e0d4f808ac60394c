//! Workload inputs as pure functions of `(workload, seed)`: the smog
//! steering schedule, the DNS browse path and the viewer request sequence.
//! Everything here is generated before timing starts and is independent of
//! how fast the program under test runs.

use flowsim::SteeringCommand;

/// SplitMix64: small, seedable and stable across platforms and toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload's stream: the workload name and any
    /// sub-stream index are folded into the seed.
    pub fn for_stream(workload: &str, seed: u64, stream: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in workload.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.rotate_left(32));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [lo, hi).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A steering user issues one command every this many frames.
pub const STEER_EVERY: u64 = 10;

/// The steering command due at `frame` of a smog_steer run, if any. Factors
/// are drawn around 1 so a long run's parameters random-walk rather than
/// diverge.
pub fn steering_command(seed: u64, frame: u64) -> Option<SteeringCommand> {
    if !frame.is_multiple_of(STEER_EVERY) {
        return None;
    }
    let mut rng = Rng::for_stream("smog_steer", seed, frame);
    Some(match rng.below(4) {
        0 => SteeringCommand::ScaleEmissions(rng.range(0.5, 2.0)),
        1 => SteeringCommand::ScaleWind(rng.range(0.7, 1.4)),
        2 => SteeringCommand::SetDiffusion(rng.range(0.02, 0.1)),
        _ => SteeringCommand::SetDecay(rng.range(0.01, 0.05)),
    })
}

/// The slice sequence a DNS browsing user visits: runs of forward play,
/// short scrubs back, and jumps. Infinite; take as many frames as a run
/// has time for.
#[derive(Debug, Clone)]
pub struct BrowsePath {
    rng: Rng,
    slices: usize,
    index: usize,
    /// Remaining steps of the current run and its direction (+1 / -1).
    run: (u64, i64),
}

/// What a browse step did (for the mix tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowseMove {
    Play,
    Scrub,
    Jump,
}

impl BrowsePath {
    pub fn new(seed: u64, slices: usize) -> Self {
        assert!(slices > 1, "a browse path needs at least two slices");
        BrowsePath {
            rng: Rng::for_stream("dns_browse", seed, 0),
            slices,
            index: 0,
            run: (0, 1),
        }
    }

    /// The next slice index to load and how the user got there.
    pub fn step(&mut self) -> (usize, BrowseMove) {
        if self.run.0 == 0 {
            let r = self.rng.unit();
            if r < 0.15 {
                self.index = self.rng.below(self.slices as u64) as usize;
                return (self.index, BrowseMove::Jump);
            }
            self.run = if r < 0.75 {
                (4 + self.rng.below(9), 1)
            } else {
                (2 + self.rng.below(5), -1)
            };
        }
        self.run.0 -= 1;
        let n = self.slices as i64;
        self.index = (self.index as i64 + self.run.1).rem_euclid(n) as usize;
        let kind = if self.run.1 > 0 {
            BrowseMove::Play
        } else {
            BrowseMove::Scrub
        };
        (self.index, kind)
    }
}

/// Private sessions per viewer connection, and subscribers of that
/// connection's shared channel.
pub const SESSIONS_PER_CONN: usize = 3;
/// A scrub re-fetches one of this many most recent frames.
pub const SCRUB_WINDOW: u64 = 8;
/// Share of steers that go back to the session's previous field (a cache
/// hit for its frame 0); the rest go to a field variant it never showed.
const STEER_BACK: f64 = 0.3;

/// One viewer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Re-fetch an already rendered frame of a private session.
    Scrub { session: usize, frame: u64 },
    /// Fetch the next frame of a private session.
    Play { session: usize, frame: u64 },
    /// Steer a private session to field variant `field`, then fetch its
    /// frame 0.
    Steer { session: usize, field: u64 },
    /// A shared-channel subscriber fetches its next frame.
    Shared { subscriber: usize, frame: u64 },
}

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Scrub { .. } => "scrub",
            Op::Play { .. } => "play",
            Op::Steer { .. } => "steer",
            Op::Shared { .. } => "shared",
        }
    }
}

/// What the plan knows of one private session.
#[derive(Debug, Clone, Copy)]
struct Head {
    field: u64,
    /// Highest frame fetched since the last steer.
    frame: u64,
    previous: Option<u64>,
    /// The next never-shown field variant.
    fresh: u64,
}

/// The request sequence of one viewer connection. Each connection owns its
/// own sessions and subscribers, so its sequence — including every frame
/// index — is a pure function of `(seed, connection)` and never races the
/// other connection.
///
/// Session `s` starts on field variant `s`; steers go back to the previous
/// field or on to fresh variants, so how far a session must replay after a
/// steer stays bounded over a run of any length.
#[derive(Debug, Clone)]
pub struct RequestPlan {
    rng: Rng,
    heads: [Head; SESSIONS_PER_CONN],
    subscribers: [u64; SESSIONS_PER_CONN],
}

impl RequestPlan {
    /// Every session and subscriber starts with frame 0 already fetched
    /// (the warm-up).
    pub fn new(seed: u64, connection: u64) -> Self {
        RequestPlan {
            rng: Rng::for_stream("viewer_mix", seed, connection),
            heads: std::array::from_fn(|s| Head {
                field: s as u64,
                frame: 0,
                previous: None,
                fresh: SESSIONS_PER_CONN as u64,
            }),
            subscribers: [0; SESSIONS_PER_CONN],
        }
    }

    pub fn next_op(&mut self) -> Op {
        let r = self.rng.unit();
        let session = self.rng.below(SESSIONS_PER_CONN as u64) as usize;
        let head = &mut self.heads[session];
        if r < 0.55 {
            let back = self.rng.below(head.frame.min(SCRUB_WINDOW - 1) + 1);
            Op::Scrub {
                session,
                frame: head.frame - back,
            }
        } else if r < 0.80 {
            head.frame += 1;
            Op::Play {
                session,
                frame: head.frame,
            }
        } else if r < 0.90 {
            let field = match head.previous {
                Some(previous) if self.rng.unit() < STEER_BACK => previous,
                _ => {
                    head.fresh += 1;
                    head.fresh - 1
                }
            };
            head.previous = Some(head.field);
            head.field = field;
            head.frame = 0;
            Op::Steer { session, field }
        } else {
            let subscriber = session;
            self.subscribers[subscriber] += 1;
            Op::Shared {
                subscriber,
                frame: self.subscribers[subscriber],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_schedule_is_a_pure_function_of_the_seed() {
        let a: Vec<_> = (0..200).map(|f| steering_command(7, f)).collect();
        let b: Vec<_> = (0..200).map(|f| steering_command(7, f)).collect();
        let c: Vec<_> = (0..200).map(|f| steering_command(8, f)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Exactly one command every STEER_EVERY frames.
        assert_eq!(a.iter().filter(|c| c.is_some()).count(), 20);
        assert!(a
            .iter()
            .enumerate()
            .all(|(f, c)| c.is_some() == (f as u64 % STEER_EVERY == 0)));
    }

    #[test]
    fn browse_path_is_deterministic_and_mixed() {
        let take = |seed| {
            let mut p = BrowsePath::new(seed, 24);
            (0..5000).map(|_| p.step()).collect::<Vec<_>>()
        };
        let a = take(3);
        assert_eq!(a, take(3));
        assert_ne!(a, take(4));
        assert!(a.iter().all(|&(i, _)| i < 24));
        let share = |m| a.iter().filter(|(_, k)| *k == m).count() as f64 / a.len() as f64;
        // Per decision: 60% forward runs (mean 8 steps), 25% runs back
        // (mean 4), 15% jumps (1 step) -> 4.8 : 1.0 : 0.15 of the steps.
        assert!((share(BrowseMove::Play) - 4.8 / 5.95).abs() < 0.03);
        assert!((share(BrowseMove::Scrub) - 1.0 / 5.95).abs() < 0.03);
        assert!((share(BrowseMove::Jump) - 0.15 / 5.95).abs() < 0.01);
        // Every slice gets visited.
        for s in 0..24 {
            assert!(a.iter().any(|&(i, _)| i == s), "slice {s} never visited");
        }
    }

    fn ops(seed: u64, conn: u64, n: usize) -> Vec<Op> {
        let mut p = RequestPlan::new(seed, conn);
        (0..n).map(|_| p.next_op()).collect()
    }

    #[test]
    fn request_sequence_is_deterministic_per_connection() {
        assert_eq!(ops(5, 0, 2000), ops(5, 0, 2000));
        assert_ne!(ops(5, 0, 2000), ops(5, 1, 2000));
        assert_ne!(ops(5, 0, 2000), ops(6, 0, 2000));
    }

    #[test]
    fn request_mix_proportions() {
        let all = ops(11, 0, 20_000);
        let share = |k| all.iter().filter(|o| o.kind() == k).count() as f64 / all.len() as f64;
        assert!((share("scrub") - 0.55).abs() < 0.02, "{}", share("scrub"));
        assert!((share("play") - 0.25).abs() < 0.02, "{}", share("play"));
        assert!((share("steer") - 0.10).abs() < 0.02, "{}", share("steer"));
        assert!((share("shared") - 0.10).abs() < 0.02, "{}", share("shared"));
    }

    #[test]
    fn requests_follow_the_session_state() {
        // Replays the plan's own bookkeeping: scrubs only revisit frames
        // already fetched on the current field, plays step one frame
        // forward, steers change field and restart at frame 0, going back
        // to the previous field about STEER_BACK of the time.
        let mut heads: Vec<(u64, u64, Option<u64>)> = (0..SESSIONS_PER_CONN)
            .map(|s| (s as u64, 0, None))
            .collect();
        let mut subs = [0u64; SESSIONS_PER_CONN];
        let (mut steers, mut backs) = (0, 0);
        for op in ops(13, 1, 20_000) {
            match op {
                Op::Scrub { session, frame } => {
                    let head = heads[session].1;
                    assert!(frame <= head && head - frame < SCRUB_WINDOW);
                }
                Op::Play { session, frame } => {
                    assert_eq!(frame, heads[session].1 + 1);
                    heads[session].1 = frame;
                }
                Op::Steer { session, field } => {
                    let (current, _, previous) = heads[session];
                    assert_ne!(field, current);
                    steers += 1;
                    backs += (Some(field) == previous) as u32;
                    heads[session] = (field, 0, Some(current));
                }
                Op::Shared { subscriber, frame } => {
                    assert_eq!(frame, subs[subscriber] + 1);
                    subs[subscriber] = frame;
                }
            }
        }
        let back_share = backs as f64 / steers as f64;
        assert!((back_share - STEER_BACK).abs() < 0.05, "{back_share}");
    }
}
