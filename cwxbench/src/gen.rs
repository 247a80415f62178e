//! The benchmark's own seeded input generators.
//!
//! Nothing here touches a program crate: the same seed yields the same
//! agent frames, stored history and query schedule on every commit,
//! and the reference answers the output checks compare against are
//! folded from these arrays, never read back from the system under
//! test.

/// splitmix64: tiny, seedable, and owned by the instrument so a change
/// to the workspace's `rand` stand-in can never move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An independent stream for a named purpose.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93));
        r.next_u64();
        r
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Monitor values are bounded random walks held in hundredths, so the
/// `f64`s on the wire and in segments are two-decimal readings whose
/// XOR-varint sizes look like real sensors', not like counters.
const WALK_MAX: i32 = 10_000; // 100.00
const WALK_STEP: u64 = 50; // ±0.50 per tick

fn walk_start(rng: &mut Rng) -> i32 {
    rng.below(WALK_MAX as u64 + 1) as i32
}

fn walk_next(cur: &mut i32, rng: &mut Rng) -> f64 {
    let d = rng.below(2 * WALK_STEP + 1) as i32 - WALK_STEP as i32;
    *cur = (*cur + d).clamp(0, WALK_MAX);
    *cur as f64 / 100.0
}

/// Numeric keys per agent frame: `bench.m0`…`bench.m30` plus the
/// freshness stamp.
pub const KEYS_PER_FRAME: usize = 32;
/// The key whose value is the frame's due time (see the freshness
/// probe in `live`).
pub const STAMP_KEY: &str = "bench.stamp";

/// The monitor names of one frame, in wire order (stamp last).
pub fn key_names() -> Vec<String> {
    let mut keys: Vec<String> = (0..KEYS_PER_FRAME - 1)
        .map(|i| format!("bench.m{i}"))
        .collect();
    keys.push(STAMP_KEY.to_string());
    keys
}

/// Header of one generated frame; its values are written to a caller
/// buffer in [`key_names`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHead {
    /// Simulated agent (node id).
    pub node: u32,
    /// That agent's report sequence number.
    pub seq: u64,
    /// Gather time on the store's clock: the frame's *due* time on the
    /// generator's schedule, so generator lateness counts as lag.
    pub time_secs: f64,
}

/// The agent fleet: `agents` simulated agents whose frames interleave
/// round-robin on one open-loop schedule of `frames_per_sec`.
#[derive(Debug, Clone)]
pub struct FleetGen {
    agents: u32,
    frames_per_sec: f64,
    base_secs: f64,
    rng: Rng,
    walks: Vec<i32>,
    next: u64,
}

impl FleetGen {
    /// A fleet whose frame 0 is due at store time `base_secs`.
    pub fn new(seed: u64, agents: u32, frames_per_sec: f64, base_secs: f64) -> FleetGen {
        let mut rng = Rng::new(seed).fork(1);
        let walks = (0..agents as usize * (KEYS_PER_FRAME - 1))
            .map(|_| walk_start(&mut rng))
            .collect();
        FleetGen {
            agents,
            frames_per_sec,
            base_secs,
            rng,
            walks,
            next: 0,
        }
    }

    /// Seconds after frame 0 at which frame `k` is due.
    pub fn due_offset_secs(&self, k: u64) -> f64 {
        k as f64 / self.frames_per_sec
    }

    /// Generate the next frame; `values` is cleared and filled.
    pub fn next_frame(&mut self, values: &mut Vec<f64>) -> FrameHead {
        let k = self.next;
        self.next += 1;
        let node = (k % self.agents as u64) as u32;
        let time_secs = self.base_secs + self.due_offset_secs(k);
        let w = node as usize * (KEYS_PER_FRAME - 1);
        values.clear();
        for cur in &mut self.walks[w..w + KEYS_PER_FRAME - 1] {
            values.push(walk_next(cur, &mut self.rng));
        }
        values.push(time_secs);
        FrameHead {
            node,
            seq: k / self.agents as u64,
            time_secs,
        }
    }
}

/// Stored history: every node reports one monitor every `step_secs`,
/// sample `i` at time `(i + 1) * step_secs`.
#[derive(Debug, Clone)]
pub struct History {
    /// Nodes.
    pub fleet: u32,
    /// Cadence, seconds.
    pub step_secs: u64,
    /// Samples per node.
    pub steps: usize,
    /// `values[step * fleet + node]`.
    pub values: Vec<f64>,
}

impl History {
    /// Generate `steps` samples for each of `fleet` nodes.
    pub fn generate(seed: u64, fleet: u32, steps: usize, step_secs: u64) -> History {
        let mut rng = Rng::new(seed).fork(2);
        let mut walks: Vec<i32> = (0..fleet).map(|_| walk_start(&mut rng)).collect();
        let mut values = Vec::with_capacity(steps * fleet as usize);
        for _ in 0..steps {
            for w in &mut walks {
                values.push(walk_next(w, &mut rng));
            }
        }
        History {
            fleet,
            step_secs,
            steps,
            values,
        }
    }

    /// Time of sample `step`, seconds.
    pub fn time_secs(&self, step: usize) -> u64 {
        (step as u64 + 1) * self.step_secs
    }

    /// Seconds covered (time of the last sample).
    pub fn span_secs(&self) -> u64 {
        self.steps as u64 * self.step_secs
    }

    /// Total samples.
    pub fn samples(&self) -> u64 {
        self.values.len() as u64
    }
}

/// Aggregations the benchmark's queries use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Arithmetic mean (tier-serveable).
    Avg,
    /// Maximum (tier-serveable).
    Max,
    /// 99th percentile, nearest rank (always a raw scan).
    P99,
}

/// One windowed aggregation query over a node range, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryShape {
    /// Class label (`"scan10s"`, `"tier5m"`, …).
    pub class: &'static str,
    /// Monitor name.
    pub monitor: &'static str,
    /// Aggregation.
    pub agg: Agg,
    /// Range start, seconds.
    pub from_secs: u64,
    /// Range end, seconds.
    pub to_secs: u64,
    /// Output window, seconds.
    pub window_secs: u64,
    /// Nodes `0..nodes` aggregated as one group.
    pub nodes: u32,
}

/// The five dashboard query classes over a history of `span_secs`.
///
/// * `scan10s` — 10 s avg over the whole span: one bucket per sample,
///   far more entries than the block cache holds, so it evicts
///   everything else.
/// * `rawp99` — 1 h p99 over the whole span: percentiles cannot be
///   served from tiers, every raw block is decoded.
/// * `tier5m` — 5 min avg over the whole span: fits the cache; warm
///   unless a big scan just ran.
/// * `tier1h` — 1 h avg over the whole span: the cheap overview.
/// * `recent5m` — 5 min avg over the trailing hour.
pub fn dash_classes(monitor: &'static str, span_secs: u64, nodes: u32) -> [QueryShape; 5] {
    let q = |class, agg, from_secs, window_secs| QueryShape {
        class,
        monitor,
        agg,
        from_secs,
        to_secs: span_secs,
        window_secs,
        nodes,
    };
    [
        q("scan10s", Agg::Avg, 0, 10),
        q("rawp99", Agg::P99, 0, 3_600),
        q("tier5m", Agg::Avg, 0, 300),
        q("tier1h", Agg::Avg, 0, 3_600),
        q("recent5m", Agg::Avg, span_secs.saturating_sub(3_600), 300),
    ]
}

/// One closed-loop cycle: `counts[i]` queries of class `i`, in seeded
/// order. Fixed counts keep every seed's mix identical; only the
/// interleaving (who runs right after a cache-evicting scan) moves.
pub fn dash_cycle(rng: &mut Rng, counts: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// One reference output window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPoint {
    /// Window start, seconds.
    pub start_secs: u64,
    /// Samples in the window.
    pub count: u64,
    /// The aggregate.
    pub value: f64,
}

/// Fold `q` over the generated history the slow, obvious way. The
/// range is widened to whole windows, as the query engine documents.
pub fn reference(h: &History, q: &QueryShape) -> Vec<RefPoint> {
    let w = q.window_secs;
    let from = q.from_secs / w * w;
    let to = q.to_secs / w * w + w; // exclusive
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for step in 0..h.steps {
        let t = h.time_secs(step);
        if t < from || t >= to {
            continue;
        }
        let row = &h.values[step * h.fleet as usize..][..q.nodes as usize];
        windows.entry(t / w * w).or_default().extend_from_slice(row);
    }
    windows
        .into_iter()
        .map(|(start_secs, mut vals)| {
            let n = vals.len();
            let value = match q.agg {
                Agg::Avg => vals.iter().sum::<f64>() / n as f64,
                Agg::Max => vals.iter().copied().fold(f64::MIN, f64::max),
                Agg::P99 => {
                    vals.sort_by(|a, b| a.total_cmp(b));
                    vals[((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1]
                }
            };
            RefPoint {
                start_secs,
                count: n as u64,
                value,
            }
        })
        .collect()
}

/// What socket B sends in `live_mixed`/`ingest_live`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientOp {
    /// A freshness probe.
    Probe,
    /// A dashboard query of class `i` of the workload's class table.
    Dash(usize),
}

/// The open-loop client schedule: `(due offset in seconds, op)`, sorted
/// by due time. Probes come at `probe_hz` and dashboard queries at
/// `dash_hz`, each at a seeded random point of its own period: a
/// strictly periodic probe would sample the server at one fixed phase
/// of its periodic timers (batch delay, poll timeout) and report that
/// phase instead of the distribution. Dashboard classes come in blocks
/// of `weights.sum()` queries holding exactly `weights[i]` of class `i`
/// in seeded order, so every seed runs the same mix.
pub fn client_schedule(
    rng: &mut Rng,
    secs: f64,
    probe_hz: f64,
    dash_hz: f64,
    weights: &[usize],
) -> Vec<(f64, ClientOp)> {
    fn jitter(rng: &mut Rng, k: u64, hz: f64) -> f64 {
        (k as f64 + rng.below(1 << 20) as f64 / (1u64 << 20) as f64) / hz
    }
    let mut ops: Vec<(f64, ClientOp)> = Vec::new();
    for k in 0..(secs * probe_hz) as u64 {
        ops.push((jitter(rng, k, probe_hz), ClientOp::Probe));
    }
    let mut block: Vec<usize> = Vec::new();
    for k in 0..(secs * dash_hz) as u64 {
        if block.is_empty() {
            block = dash_cycle(rng, weights);
        }
        let due = jitter(rng, k, dash_hz);
        ops.push((
            due,
            ClientOp::Dash(block.pop().expect("weights are not all zero")),
        ));
    }
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_are_two_decimal_and_bounded() {
        let mut rng = Rng::new(9);
        let mut cur = walk_start(&mut rng);
        for _ in 0..10_000 {
            let v = walk_next(&mut cur, &mut rng);
            assert!((0.0..=100.0).contains(&v));
            assert_eq!((v * 100.0).round() / 100.0, v);
        }
    }

    #[test]
    fn fleet_round_robins_and_stamps_due_time() {
        let mut g = FleetGen::new(3, 4, 8.0, 100.0);
        let mut vals = Vec::new();
        let heads: Vec<FrameHead> = (0..9).map(|_| g.next_frame(&mut vals)).collect();
        assert_eq!(vals.len(), KEYS_PER_FRAME);
        assert_eq!(heads[0].node, 0);
        assert_eq!(heads[5].node, 1);
        assert_eq!(heads[5].seq, 1);
        assert_eq!(heads[8].time_secs, 101.0);
        assert_eq!(*vals.last().unwrap(), heads[8].time_secs);
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let frames = |seed| {
            let mut g = FleetGen::new(seed, 8, 32.0, 0.0);
            let mut vals = Vec::new();
            let mut all = Vec::new();
            for _ in 0..64 {
                g.next_frame(&mut vals);
                all.extend(vals.iter().map(|v| v.to_bits()));
            }
            all
        };
        assert_eq!(frames(7), frames(7));
        assert_ne!(frames(7), frames(8));

        let cycle = |seed| dash_cycle(&mut Rng::new(seed).fork(3), &[1, 1, 25, 125, 125]);
        assert_eq!(cycle(7), cycle(7));
        assert_ne!(cycle(7), cycle(8));
        let mut counts = [0usize; 5];
        for c in cycle(7) {
            counts[c] += 1;
        }
        assert_eq!(
            counts,
            [1, 1, 25, 125, 125],
            "the mix never depends on the seed"
        );

        let sched = |seed| client_schedule(&mut Rng::new(seed).fork(4), 2.0, 10.0, 40.0, &[3, 1]);
        assert_eq!(sched(7), sched(7));
        assert_ne!(sched(7), sched(8));
        assert_eq!(sched(7).len(), 100);
        assert!(sched(7).windows(2).all(|w| w[0].0 <= w[1].0));
        for seed in [7, 8] {
            let of = |c| {
                sched(seed)
                    .iter()
                    .filter(|op| op.1 == ClientOp::Dash(c))
                    .count()
            };
            assert_eq!(
                (of(0), of(1)),
                (60, 20),
                "the mix never depends on the seed"
            );
        }

        let h = |seed| History::generate(seed, 5, 20, 30).values;
        assert_eq!(h(7), h(7));
        assert_ne!(h(7), h(8));
    }

    #[test]
    fn reference_fold_windows_counts_and_p99() {
        // 2 nodes, samples at 30,60,...,300 s
        let mut h = History::generate(1, 2, 10, 30);
        for (i, v) in h.values.iter_mut().enumerate() {
            *v = i as f64;
        }
        let q = QueryShape {
            class: "t",
            monitor: "m",
            agg: Agg::Avg,
            from_secs: 0,
            to_secs: 300,
            window_secs: 120,
            nodes: 2,
        };
        let r = reference(&h, &q);
        // windows [0,120) has t=30,60,90 → 6 samples 0..=5
        assert_eq!(
            r[0],
            RefPoint {
                start_secs: 0,
                count: 6,
                value: 2.5
            }
        );
        assert_eq!(r.iter().map(|p| p.count).sum::<u64>(), 20);
        assert_eq!(r.last().unwrap().start_secs, 240);
        let p = reference(
            &h,
            &QueryShape {
                agg: Agg::P99,
                window_secs: 3_600,
                ..q.clone()
            },
        );
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].value, 19.0);
        let m = reference(
            &h,
            &QueryShape {
                agg: Agg::Max,
                nodes: 1,
                ..q
            },
        );
        assert_eq!(m[0].value, 4.0);
    }
}
