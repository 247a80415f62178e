//! Fleet stepping in node-id order.
//!
//! A world steps its nodes one after another on the thread that steps
//! the world: the federation already runs its worlds concurrently
//! (`cwx_fed::sim`), and that is the simulator's only level of
//! parallelism. Each node evolves its own state from its own RNG; the
//! caller applies the outputs afterwards, in node-id order.

/// Step every item in index order and return the non-`None` outputs
/// tagged with their item index.
///
/// `shards` is ignored: it stays in the signature only because the
/// frozen benchmark surface (`cwxbench/src/surface.rs`) calls
/// `step_fleet(items, 1, f)`, until ROADMAP item 1(e) re-points it.
pub fn step_fleet<T, Out, F>(items: &mut [T], _shards: usize, step: F) -> Vec<(u32, Out)>
where
    F: Fn(u32, &mut T) -> Option<Out>,
{
    let mut out = Vec::new();
    for (i, item) in items.iter_mut().enumerate() {
        if let Some(o) = step(i as u32, item) {
            out.push((i as u32, o));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_index_order() {
        let mut items: Vec<u32> = (0..1000).collect();
        let out = step_fleet(&mut items, 1, |i, v| {
            *v += 1;
            (!i.is_multiple_of(3)).then_some(*v)
        });
        let want: Vec<(u32, u32)> = (0..1000u32)
            .filter(|i| !i.is_multiple_of(3))
            .map(|i| (i, i + 1))
            .collect();
        assert_eq!(out, want);
        assert_eq!(items, (1..1001).collect::<Vec<_>>(), "each stepped once");
    }

    #[test]
    fn empty_and_tiny_fleets() {
        let mut none: Vec<u8> = Vec::new();
        assert!(step_fleet(&mut none, 1, |_, _| Some(())).is_empty());
        let mut one = vec![5u8];
        assert_eq!(
            step_fleet(&mut one, 1, |i, v| Some((i, *v))),
            vec![(0, (0, 5))]
        );
    }
}
