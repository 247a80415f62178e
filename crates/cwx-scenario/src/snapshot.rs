//! Scenario-level snapshot assembly: the prefix-identity hash that
//! pins a snapshot to its (manifest, seed, fault-prefix), file
//! building, and load-time validation.
//!
//! The world capture itself lives next to each engine
//! ([`clusterworx::snapshot`], [`cwx_fed::FederationSim::capture_sections`]);
//! this module decides *when* captures happen and what makes a
//! snapshot file acceptable for resume.
//!
//! Resume is **verified replay**: the runtime cannot deserialize
//! closures out of a file, so `--resume-from` re-derives the world
//! from (manifest, seed), replays it to the snapshot instant using
//! fingerprint-neutral splits, and byte-compares every captured
//! section against the file before continuing. A divergence is a
//! hard exit-3 error naming the first section that differs — never a
//! silently different run.

use std::fmt::Write as _;

use cwx_util::hash::fnv1a;
use cwx_util::snapshot::{SnapshotFile, MODE_CHAOS, MODE_FEDERATION};
use cwx_util::time::SimDuration;

use crate::manifest::{Manifest, Mode};

/// Convert a manifest time (simulated seconds) to the runner's
/// nanosecond grid — the single conversion both capture and resume
/// use, so a time recorded in a snapshot file replays exactly.
pub fn secs_to_nanos(t: f64) -> u64 {
    SimDuration::from_secs_f64(t).as_nanos()
}

/// The run's horizon, active phase plus settle, on the nanosecond grid.
pub(crate) fn horizon_nanos(m: &Manifest) -> u64 {
    secs_to_nanos(m.duration_secs + m.settle_secs)
}

/// The snapshot mode byte for a manifest.
pub fn mode_byte(m: &Manifest) -> u8 {
    match &m.mode {
        Mode::Chaos(_) => MODE_CHAOS,
        Mode::Federation(_) => MODE_FEDERATION,
    }
}

/// Identity hash of everything that shapes the simulated world up to
/// `t_nanos`: seed, cluster/federation shape, invariant policy, and
/// the faults that are part of the world state at the snapshot
/// instant.
///
/// Which faults count is mode-specific, and honestly so. A chaos
/// campaign schedules its **entire** fault list into the event queue
/// at build time, so even a fault that fires after `t_nanos` is
/// already pending engine state at the snapshot — all faults are
/// identity. A federation runner applies faults externally as it
/// walks the schedule, so only faults at or before `t_nanos` shape
/// the world — the prefix is identity, and a snapshot can seed many
/// continuations that differ only in later faults ("fork-many").
///
/// Deliberately excluded in both modes: the scenario `name`,
/// `[assertions]`, `[limits]` and `[checkpoints]` — none influence
/// the world's trajectory, so those can always vary across a resume.
pub fn prefix_identity(m: &Manifest, t_nanos: u64) -> u64 {
    let mut s = String::new();
    match &m.mode {
        Mode::Chaos(spec) => {
            // the policy is spelled as the `Debug` rendering of the
            // plain-data struct that once carried it: the identity of
            // every snapshot older builds wrote hashes this exact text
            let p = &spec.policy;
            let _ = write!(
                s,
                "chaos seed={} nodes={} rack_network={} flap={:?} release={:?} \
                 duration={} settle={} policy=InvariantPolicyValues {{ check_every_secs: {:?}, \
                 transient_deadline_secs: {:?}, freshness_secs: {:?} }};",
                m.seed,
                spec.n_nodes,
                spec.rack_network,
                spec.flap_threshold,
                spec.quarantine_release_secs,
                secs_to_nanos(m.duration_secs),
                secs_to_nanos(m.settle_secs),
                p.check_every_secs,
                p.transient_deadline_secs,
                p.freshness_secs
            );
        }
        Mode::Federation(spec) => {
            let _ = write!(
                s,
                "federation seed={} clusters={} nodes_per={} uplink={} stale={} \
                 duration={} settle={};",
                m.seed,
                spec.clusters,
                spec.nodes_per_cluster,
                secs_to_nanos(spec.uplink_secs),
                secs_to_nanos(spec.stale_after_secs),
                secs_to_nanos(m.duration_secs),
                secs_to_nanos(m.settle_secs)
            );
        }
    }
    let prefix_only = matches!(m.mode, Mode::Federation(_));
    for (at, desc) in m.fault_schedule() {
        let at_n = secs_to_nanos(at);
        if !prefix_only || at_n <= t_nanos {
            let _ = write!(s, "fault@{at_n} {desc};");
        }
    }
    fnv1a(s.as_bytes())
}

/// Assemble an encodable snapshot from the sections an engine
/// captured at `t_nanos`.
pub fn build_snapshot(
    m: &Manifest,
    t_nanos: u64,
    sections: Vec<(String, Vec<u8>)>,
) -> SnapshotFile {
    SnapshotFile {
        identity: prefix_identity(m, t_nanos),
        t_nanos,
        mode: mode_byte(m),
        sections,
    }
}

/// Check that a loaded snapshot is resumable under this manifest:
/// same mode, same prefix identity, instant inside the run. Every
/// rejection is a single-line message suitable for stderr + exit 3.
pub fn check_resumable(m: &Manifest, file: &SnapshotFile) -> Result<(), String> {
    let want_mode = mode_byte(m);
    if file.mode != want_mode {
        let name = |b: u8| {
            if b == MODE_CHAOS {
                "chaos"
            } else {
                "federation"
            }
        };
        return Err(format!(
            "snapshot was taken in {} mode but the manifest is {} mode",
            name(file.mode),
            name(want_mode)
        ));
    }
    let total_n = horizon_nanos(m);
    if file.t_nanos > total_n {
        return Err(format!(
            "snapshot instant {}s is beyond this run's horizon of {}s",
            file.t_nanos as f64 / 1e9,
            total_n as f64 / 1e9
        ));
    }
    let want = prefix_identity(m, file.t_nanos);
    if file.identity != want {
        return Err(format!(
            "snapshot identity {:016x} does not match this manifest's prefix identity {want:016x} \
             (seed, cluster shape, policy, or a fault at or before the snapshot instant differs)",
            file.identity
        ));
    }
    Ok(())
}

/// The instants a run can actually stop at, for a set of requested
/// capture times. A chaos run stops anywhere. A federation run rounds
/// each requested time **up** to the next place its runner pauses — an
/// uplink-epoch boundary within the current fault segment, or the
/// segment end itself (a fault instant or the end of the run),
/// whichever comes first.
///
/// Returned ascending and deduplicated. Times beyond the run's horizon
/// are dropped. A time that is already an effective instant (e.g. one
/// read back from a snapshot file) maps to itself, which is what
/// makes capture and resume agree on where to pause.
pub fn effective_times(m: &Manifest, requested: &[u64]) -> Vec<u64> {
    let total_n = horizon_nanos(m);
    let mut req = requested.to_vec();
    req.retain(|&t| t <= total_n);
    req.sort_unstable();
    req.dedup();
    let Mode::Federation(spec) = &m.mode else {
        return req;
    };
    let uplink_n = secs_to_nanos(spec.uplink_secs).max(1);

    let mut out = Vec::with_capacity(req.len());
    let mut req_it = req.into_iter().peekable();
    let mut seg_start = 0u64;
    for seg_end in fed_segment_ends(m) {
        while let Some(&t) = req_it.peek() {
            if t > seg_end {
                break;
            }
            let aligned = if t <= seg_start {
                seg_start
            } else {
                let k = (t - seg_start).div_ceil(uplink_n);
                seg_start.saturating_add(k.saturating_mul(uplink_n))
            };
            out.push(aligned.min(seg_end));
            req_it.next();
        }
        seg_start = seg_end;
    }
    out.dedup();
    out
}

/// The federation runner's stop points in nanoseconds: each distinct
/// fault instant, then the end of the run. Shared by the runner and
/// [`effective_times`] so both walk identical segments.
pub(crate) fn fed_segment_ends(m: &Manifest) -> Vec<u64> {
    let total_n = horizon_nanos(m);
    let mut ends: Vec<u64> = m.faults.iter().map(|f| secs_to_nanos(f.0)).collect();
    ends.retain(|&n| n > 0 && n < total_n);
    ends.sort_unstable();
    ends.dedup();
    ends.push(total_n);
    ends
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed_manifest(extra_fault: bool) -> Manifest {
        let mut text = String::from(
            "scenario_version = 1\nname = \"f\"\nseed = 9\n\
             [federation]\nclusters = 2\nnodes_per_cluster = 4\nuplink = 10\n\
             [run]\nduration = 100\nsettle = 20\n\
             [[fault]]\nat = 35\nkind = \"cluster-disconnect\"\ncluster = 1\n",
        );
        if extra_fault {
            text.push_str("[[fault]]\nat = 80\nkind = \"cluster-heal\"\ncluster = 1\n");
        }
        Manifest::parse(&text).expect("parses")
    }

    #[test]
    fn identity_ignores_suffix_faults_and_name() {
        let a = fed_manifest(false);
        let b = fed_manifest(true);
        let t = secs_to_nanos(50.0);
        // the extra fault lands at 80s, after the snapshot instant
        assert_eq!(prefix_identity(&a, t), prefix_identity(&b, t));
        // ...but is part of the identity at 80s and later
        assert_ne!(
            prefix_identity(&a, secs_to_nanos(90.0)),
            prefix_identity(&b, secs_to_nanos(90.0))
        );
        // a different seed changes every identity
        let mut c = fed_manifest(false);
        c.seed = 10;
        assert_ne!(prefix_identity(&a, t), prefix_identity(&c, t));
        // the name is deliberately not part of the identity
        let mut d = fed_manifest(false);
        d.name = "renamed".to_string();
        assert_eq!(prefix_identity(&a, t), prefix_identity(&d, t));
    }

    #[test]
    fn fed_times_round_up_to_epoch_boundaries() {
        let m = fed_manifest(true);
        let s = secs_to_nanos;
        // segments: [0,35], [35,80], [80,120]; uplink 10s
        // 12s -> epoch boundary 20s; 31s -> capped at segment end 35s;
        // 40s -> 35+10 = 45s; 35s -> itself (a segment end);
        // 119s -> capped at 120s; 300s -> dropped (beyond the run)
        let requested = [s(12.0), s(31.0), s(35.0), s(40.0), s(119.0), s(300.0)];
        let eff = effective_times(&m, &requested);
        assert_eq!(eff, vec![s(20.0), s(35.0), s(45.0), s(120.0)]);
        // effective instants are fixed points
        assert_eq!(effective_times(&m, &eff), eff);
        // a chaos run (horizon 100 + 600 s settle) stops at every one
        let chaos = Manifest::parse(
            "scenario_version = 1\nname = \"c\"\n[cluster]\nnodes = 4\n[run]\nduration = 100",
        )
        .expect("parses");
        assert_eq!(effective_times(&chaos, &requested), requested);
    }

    #[test]
    fn resumable_checks_mode_identity_and_horizon() {
        let m = fed_manifest(false);
        let t = secs_to_nanos(50.0);
        let file = build_snapshot(&m, t, vec![("fed".into(), vec![1, 2, 3])]);
        assert!(check_resumable(&m, &file).is_ok());

        let mut other = fed_manifest(false);
        other.seed = 1234;
        let err = check_resumable(&other, &file).expect_err("identity mismatch");
        assert!(err.contains("identity"), "{err}");

        let mut late = file.clone();
        late.t_nanos = secs_to_nanos(5000.0);
        let err = check_resumable(&m, &late).expect_err("beyond horizon");
        assert!(err.contains("horizon"), "{err}");

        let chaos = Manifest::parse(
            "scenario_version = 1\nname = \"c\"\n[cluster]\nnodes = 4\n[run]\nduration = 100",
        )
        .expect("parses");
        let err = check_resumable(&chaos, &file).expect_err("mode mismatch");
        assert!(err.contains("mode"), "{err}");
    }
}
