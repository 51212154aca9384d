//! Input generation. Every input of a run derives from `--seed`; the
//! generators here are the benchmark's own, so a change to the library's
//! workload crate cannot change what is measured.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// An independent stream for one purpose (data, deletions, queries).
    pub fn derive(seed: u64, purpose: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// `k` distinct positions of `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut picked = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let i = self.below(n);
            if picked.insert(i) {
                out.push(i);
            }
        }
        out
    }
}

/// Side of the data space `[0, EXTENT]^d` (paper §8.1).
pub const EXTENT: f64 = 100_000.0;
/// Radius of the ball a spreader emits into.
const VICINITY: f64 = 25.0;
/// Distance a spreader moves after `PER_STATION` points.
const STEP: f64 = 50.0;
const PER_STATION: usize = 100;

/// The seed-spreader process of Gan & Tao (§8.1): a random walk that emits
/// points uniformly in `B(p, 25)`, moves 50 after every 100 points,
/// restarts at a uniform location with probability `restart_prob` per
/// point, and emits a uniform noise point with probability `noise_prob`.
///
/// The walks' shapes come from the fixed [`DATASET`] seed; `place` only
/// moves each walk's start by an offset in `[0, shift)` per axis, so the
/// grid's cell boundaries cut every cluster somewhere else.
pub struct Spreader<const D: usize> {
    rng: Rng,
    place: Rng,
    shift: f64,
    pos: [f64; D],
    emitted_here: usize,
    restart_prob: f64,
    noise_prob: f64,
}

impl<const D: usize> Spreader<D> {
    pub fn new(
        mut rng: Rng,
        mut place: Rng,
        shift: f64,
        restart_prob: f64,
        noise_prob: f64,
    ) -> Self {
        let pos = start(&mut rng, &mut place, shift);
        Spreader {
            rng,
            place,
            shift,
            pos,
            emitted_here: 0,
            restart_prob,
            noise_prob,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<[f64; D]> {
        (0..n).map(|_| self.next_point()).collect()
    }

    pub fn next_point(&mut self) -> [f64; D] {
        if self.rng.f64() < self.noise_prob {
            return uniform_point(&mut self.rng);
        }
        let p = self.in_ball();
        self.emitted_here += 1;
        if self.emitted_here == PER_STATION {
            self.emitted_here = 0;
            self.step();
        }
        if self.rng.f64() < self.restart_prob {
            self.pos = start(&mut self.rng, &mut self.place, self.shift);
            self.emitted_here = 0;
        }
        p
    }

    fn in_ball(&mut self) -> [f64; D] {
        loop {
            let off: [f64; D] = std::array::from_fn(|_| (self.rng.f64() * 2.0 - 1.0) * VICINITY);
            if off.iter().map(|x| x * x).sum::<f64>() <= VICINITY * VICINITY {
                return std::array::from_fn(|i| (self.pos[i] + off[i]).clamp(0.0, EXTENT));
            }
        }
    }

    fn step(&mut self) {
        loop {
            let dir: [f64; D] = std::array::from_fn(|_| self.rng.f64() * 2.0 - 1.0);
            let n2: f64 = dir.iter().map(|x| x * x).sum();
            if n2 > 1e-12 && n2 <= 1.0 {
                let n = n2.sqrt();
                self.pos =
                    std::array::from_fn(|i| (self.pos[i] + dir[i] / n * STEP).clamp(0.0, EXTENT));
                return;
            }
        }
    }
}

fn uniform_point<const D: usize>(rng: &mut Rng) -> [f64; D] {
    std::array::from_fn(|_| rng.f64() * EXTENT)
}

fn start<const D: usize>(rng: &mut Rng, place: &mut Rng, shift: f64) -> [f64; D] {
    let p = uniform_point::<D>(rng);
    std::array::from_fn(|i| (p[i] + place.f64() * shift).min(EXTENT))
}

/// One update of the paper's fully-dynamic stream; deletions name the
/// insertion ordinal of a point alive at that moment.
#[derive(Debug, Clone, Copy)]
pub enum Update {
    Insert(usize),
    Delete(usize),
}

/// The generator seed of the cluster shapes, fixed across runs. With ten
/// random-walk clusters per dataset, redrawing the shapes per `--seed`
/// moved `paper-d3`'s delete p50 by 3x between seeds, and moving each
/// cluster against the grid still moved it by 15 %; either would bury a
/// change to the program. So `paper-d3` runs on a fixed dataset and its
/// seed draws arrival order, deletions and queries. The window stream's
/// seed also places each walk (its many walks per round average out).
const DATASET: u64 = 0;

/// The paper's fully-dynamic workload (§8.1) over `n_updates` updates:
/// `I = n_updates · ins_frac` seed-spreader points (restart probability
/// `10 / I`, `0.0001 · I` noise points appended) randomly permuted,
/// deletion tokens mixed in with every prefix holding at least as many
/// insertions as deletions, each token deleting a uniformly random alive
/// point. Read boundaries and their queries are drawn by the caller.
pub struct PaperStream<const D: usize> {
    pub points: Vec<[f64; D]>,
    pub updates: Vec<Update>,
}

pub fn paper_stream<const D: usize>(seed: u64, n_updates: usize, ins_frac: f64) -> PaperStream<D> {
    let n_ins = (n_updates as f64 * ins_frac).round() as usize;
    let n_del = n_updates - n_ins;
    let n_noise = (n_ins as f64 * 0.0001).ceil() as usize;
    let n_cluster = n_ins - n_noise;
    let mut sp = Spreader::<D>::new(
        Rng::derive(DATASET, 1),
        Rng::derive(seed, 1),
        0.0,
        10.0 / n_cluster as f64,
        0.0,
    );
    let mut points = sp.take(n_cluster);
    let mut noise = Rng::derive(DATASET, 2);
    points.extend((0..n_noise).map(|_| uniform_point::<D>(&mut noise)));
    let mut rng = Rng::derive(seed, 2);
    rng.shuffle(&mut points);

    let slots = loop {
        let mut slots = vec![true; n_ins];
        slots.extend(std::iter::repeat_n(false, n_del));
        rng.shuffle(&mut slots);
        let mut balance = 0i64;
        if slots.iter().all(|&ins| {
            balance += if ins { 1 } else { -1 };
            balance >= 0
        }) {
            break slots;
        }
    };
    let mut alive = Vec::with_capacity(n_ins);
    let mut next = 0usize;
    let updates = slots
        .into_iter()
        .map(|ins| {
            if ins {
                alive.push(next);
                next += 1;
                Update::Insert(next - 1)
            } else {
                Update::Delete(alive.swap_remove(rng.below(alive.len())))
            }
        })
        .collect();
    PaperStream { points, updates }
}

/// The sliding-window stream: seed-spreader points in generation order,
/// so the active region wanders and clusters form, merge, split and
/// dissolve as the window slides. About ten restarts per window length;
/// one noise point per thousand.
pub fn window_stream(seed: u64, window: usize, n: usize) -> Vec<[f64; 2]> {
    Spreader::<2>::new(
        Rng::derive(DATASET, 3),
        Rng::derive(seed, 3),
        1000.0,
        10.0 / window as f64,
        0.001,
    )
    .take(n)
}
