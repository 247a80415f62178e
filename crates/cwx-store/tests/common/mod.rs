//! What the store's integration tests share: the companion rule,
//! restated from the samples a merged segment holds.

use std::path::Path;

use cwx_store::query::{aggregate, merge_buckets};
use cwx_store::segment::{Segment, SeriesData};
use cwx_store::{Resolution, Sample};
use cwx_util::time::SimTime;

/// The companion tiers a merge keeps for one series of time-ordered
/// `samples`: a tier's block is written only when it holds at most
/// half as many entries as the next finer block kept, or the samples.
pub fn kept_tiers(samples: &[Sample]) -> Vec<Resolution> {
    let mut kept = Vec::new();
    let mut source = samples.len();
    let mut buckets = aggregate(samples, Resolution::TenSeconds.bucket_nanos().unwrap());
    for res in Resolution::TIERS {
        buckets = merge_buckets(&buckets, res.bucket_nanos().unwrap());
        if 2 * buckets.len() <= source {
            kept.push(res);
            source = buckets.len();
        }
    }
    kept
}

/// Does a query at `tier` whose windows span `[from, to]` fold stored
/// buckets of `(node, monitor)` from `shard_dir`? Only where a merged
/// segment keeps a companion no coarser than `tier` for the series and
/// holds one of its samples in range.
pub fn companions_serve(
    shard_dir: &Path,
    node: u32,
    monitor: &str,
    tier: Resolution,
    from: SimTime,
    to: SimTime,
) -> bool {
    std::fs::read_dir(shard_dir).unwrap().any(|entry| {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let merged = name.ends_with("-r0.seg")
            && shard_dir.join(name.replace("-r0.seg", "-r1.seg")).exists();
        if !merged {
            return false;
        }
        let segment = Segment::read_from(&path).unwrap();
        let Some((_, SeriesData::Raw(samples))) = segment
            .series
            .iter()
            .find(|((n, m), _)| *n == node && **m == *monitor)
        else {
            return false;
        };
        kept_tiers(samples).iter().any(|&res| res <= tier)
            && samples.iter().any(|s| s.time >= from && s.time <= to)
    })
}
