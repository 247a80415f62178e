//! Parallel fleet stepping with a deterministic merge.
//!
//! The hardware integration step is embarrassingly parallel — each node
//! evolves its own thermal/workload state from its own RNG — but the
//! simulation demands bit-for-bit reproducibility regardless of how many
//! worker threads run it. [`step_fleet`] delivers both: nodes are split
//! into contiguous index shards, each shard is stepped on its own
//! `std::thread::scope` thread, and the per-shard outputs are
//! concatenated in shard order, which (because shards are contiguous and
//! in-order) *is* node-id order. The caller then applies outputs
//! single-threaded, so handler semantics never see concurrency.

/// Step every item, optionally across `shards` scoped threads, and
/// return the non-`None` outputs tagged with their item index, in index
/// order — identical for every shard count.
///
/// `shards <= 1` runs inline with no thread setup cost.
pub fn step_fleet<T, Out, F>(items: &mut [T], shards: usize, step: F) -> Vec<(u32, Out)>
where
    T: Send,
    Out: Send,
    F: Fn(u32, &mut T) -> Option<Out> + Sync,
{
    let n = items.len();
    if shards <= 1 || n < 2 {
        let mut out = Vec::new();
        for (i, item) in items.iter_mut().enumerate() {
            if let Some(o) = step(i as u32, item) {
                out.push((i as u32, o));
            }
        }
        return out;
    }
    let shards = shards.min(n);
    let chunk = n.div_ceil(shards);
    let step = &step;
    let per_shard: Vec<Vec<(u32, Out)>> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, slice)| {
                let base = (k * chunk) as u32;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (j, item) in slice.iter_mut().enumerate() {
                        let id = base + j as u32;
                        if let Some(o) = step(id, item) {
                            out.push((id, o));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet shard panicked"))
            .collect()
    });
    per_shard.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_sharded_agree_exactly() {
        let build = || (0u64..103).collect::<Vec<_>>();
        let step = |i: u32, v: &mut u64| {
            *v = v.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            (!v.is_multiple_of(3)).then_some(*v)
        };
        let mut a = build();
        let inline = step_fleet(&mut a, 1, step);
        for shards in [2, 3, 4, 7, 64, 200] {
            let mut b = build();
            let sharded = step_fleet(&mut b, shards, step);
            assert_eq!(inline, sharded, "shards={shards}");
            assert_eq!(a, b, "mutations differ at shards={shards}");
        }
    }

    #[test]
    fn outputs_are_in_index_order() {
        let mut items = vec![0u8; 1000];
        let out = step_fleet(&mut items, 8, |i, _| Some(i));
        let ids: Vec<u32> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_fleets() {
        let mut none: Vec<u8> = Vec::new();
        assert!(step_fleet(&mut none, 4, |_, _| Some(())).is_empty());
        let mut one = vec![5u8];
        assert_eq!(
            step_fleet(&mut one, 4, |i, v| Some((i, *v))),
            vec![(0, (0, 5))]
        );
    }
}
