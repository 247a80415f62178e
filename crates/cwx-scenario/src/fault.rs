//! The fault vocabulary: every fault a scenario manifest's `[[fault]]`
//! entries can schedule, in both modes. A `[cluster]` scenario injects
//! faults across every layer of the simulated cluster; a `[federation]`
//! scenario severs and restores sub-cluster uplinks. A schedule is data —
//! `(seconds, FaultKind)` pairs in [`crate::Manifest::faults`] — and each
//! mode's runner applies it.
//!
//! Every kind is declared once, as one row of [`KINDS`]: its slug, the
//! mode it belongs to, and its operands in order. Parsing, `Display`,
//! the slugs, the legal-kind list, the wrong-mode check and the coverage
//! scoreboard's denominator all read that row.

use std::fmt;

/// The scenario mode a fault kind belongs to: the one whose manifests
/// may schedule it and whose runner applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultMode {
    /// A `[cluster]` (chaos) scenario.
    Cluster,
    /// A `[federation]` scenario.
    Federation,
}

impl FaultMode {
    /// The mode's section name, without brackets.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultMode::Cluster => "cluster",
            FaultMode::Federation => "federation",
        }
    }
}

/// How a manifest reads and range-checks one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    /// An index below the fleet's rack count.
    Rack,
    /// An index below the fleet's node count.
    Node,
    /// An index below the federation's cluster count.
    Cluster,
    /// A duration in seconds, at least 1 ns.
    Secs,
    /// A number within 0..=1.
    Share,
    /// A positive integer.
    Positive,
    /// Any number.
    Number,
}

/// One operand of a fault kind.
#[derive(Debug, PartialEq)]
pub(crate) struct Operand {
    /// Its `[[fault]]` key.
    pub(crate) key: &'static str,
    /// How the manifest reads and range-checks it.
    pub(crate) read: Read,
    /// What `Display` writes right after its value.
    pub(crate) unit: &'static str,
}

/// The operands, named by their key so that each row of the table below
/// reads like the `[[fault]]` entry it parses.
#[allow(non_upper_case_globals)]
#[rustfmt::skip]
mod operand {
    use super::{Operand, Read};

    pub(crate) const rack: Operand = Operand { key: "rack", read: Read::Rack, unit: "" };
    pub(crate) const chassis: Operand = Operand { key: "chassis", read: Read::Rack, unit: "" };
    pub(crate) const node: Operand = Operand { key: "node", read: Read::Node, unit: "" };
    pub(crate) const cluster: Operand = Operand { key: "cluster", read: Read::Cluster, unit: "" };
    pub(crate) const secs: Operand = Operand { key: "secs", read: Read::Secs, unit: "s" };
    pub(crate) const loss: Operand = Operand { key: "loss", read: Read::Share, unit: "" };
    pub(crate) const bps: Operand = Operand { key: "bps", read: Read::Positive, unit: "" };
    pub(crate) const delta: Operand = Operand { key: "delta", read: Read::Number, unit: "C" };
}

/// One operand value as a manifest spelled it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Arg {
    /// An index or a count.
    Int(u64),
    /// A real number.
    Num(f64),
}

// Operand values convert to and from the variant fields they fill. The
// manifest range-checks an index before it becomes a field, so no cast
// truncates.
macro_rules! fields {
    ($($t:ty => $arm:ident),+) => {$(
        impl From<$t> for Arg {
            fn from(v: $t) -> Arg {
                Arg::$arm(v as _)
            }
        }
        impl From<Arg> for $t {
            fn from(a: Arg) -> $t {
                match a {
                    Arg::$arm(v) => v as $t,
                    _ => unreachable!("{a:?} cannot fill a {}", stringify!($t)),
                }
            }
        }
    )+};
}
fields!(usize => Int, u32 => Int, u16 => Int, u64 => Int, f64 => Num);

/// One row of the fault vocabulary.
#[derive(Debug)]
pub(crate) struct KindRow {
    /// The manifest's `kind` string and the coverage scoreboard's label.
    pub(crate) slug: &'static str,
    /// The mode whose manifests may schedule this kind.
    pub(crate) mode: FaultMode,
    /// Operands, in the order `Display` renders them.
    pub(crate) operands: &'static [Operand],
    /// The fault, from one value per operand in order.
    pub(crate) build: fn(&[Arg]) -> FaultKind,
}

impl KindRow {
    /// The row whose slug is `slug`.
    pub(crate) fn named(slug: &str) -> Option<&'static KindRow> {
        KINDS.iter().find(|k| k.slug == slug)
    }
}

/// Declares [`FaultKind`] and [`KINDS`] from one line per kind:
/// `Variant("slug", Mode, operand: FieldType, ...)`.
macro_rules! fault_kinds {
    ($($(#[doc = $doc:literal])+ $variant:ident($slug:literal, $mode:ident $(, $op:ident: $ty:ty)+);)+) => {
        /// One injectable fault. The variants span the injection surface
        /// the framework exposes: network segments, ICE Box chassis,
        /// monitoring agents, node hardware, temperature probes, and
        /// federated sub-cluster uplinks.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum FaultKind {
            $($(#[doc = $doc])+ $variant($($ty),+),)+
        }

        /// The vocabulary: one row per [`FaultKind`] variant, in
        /// declaration order.
        pub(crate) static KINDS: &[KindRow] = &[$(KindRow {
            slug: $slug,
            mode: FaultMode::$mode,
            operands: &[$(operand::$op),+],
            build: |args| {
                let mut args = args.iter().copied();
                FaultKind::$variant($(<$ty>::from(args.next().expect(concat!("a `", stringify!($op), "` value")))),+)
            },
        }),+];

        impl FaultKind {
            /// Stable kind-only name (no operands): the `kind` string a
            /// manifest uses and the coverage scoreboard's row label.
            pub(crate) fn slug(&self) -> &'static str {
                match self {
                    $(FaultKind::$variant(..) => $slug,)+
                }
            }

            /// The operand values, in [`KindRow::operands`] order.
            pub(crate) fn args(&self) -> Vec<Arg> {
                match *self {
                    $(FaultKind::$variant($($op),+) => vec![$(Arg::from($op)),+],)+
                }
            }
        }
    };
}

fault_kinds! {
    /// Unplug a rack segment's uplink (needs the rack topology).
    PartitionRack("partition-rack", Cluster, rack: usize);
    /// Plug the rack back in.
    HealRack("heal-rack", Cluster, rack: usize);
    /// Degrade a rack segment to the given per-receiver loss.
    RackLoss("rack-loss", Cluster, rack: usize, loss: f64);
    /// Renegotiate a rack segment down to the given bandwidth (bytes/s).
    RackBandwidth("rack-bandwidth", Cluster, rack: usize, bps: u64);
    /// Crash and restart a chassis controller: relays hold, pending
    /// sequenced energizations are lost.
    ChassisRestart("chassis-restart", Cluster, chassis: usize);
    /// Kill a node's monitoring daemon (a reboot restarts it).
    AgentCrash("agent-crash", Cluster, node: u32);
    /// Wedge a node's monitoring daemon for the given seconds.
    AgentHang("agent-hang", Cluster, node: u32, secs: f64);
    /// Delay every report from a node by the given seconds.
    AgentDelay("agent-delay", Cluster, node: u32, secs: f64);
    /// Duplicate every report from a node.
    AgentDuplicate("agent-duplicate", Cluster, node: u32);
    /// Clear any agent fault on a node (daemon restored).
    AgentRecover("agent-recover", Cluster, node: u32);
    /// Panic a node's kernel.
    KernelPanic("kernel-panic", Cluster, node: u32);
    /// Stop a node's CPU fan.
    FanFailure("fan-failure", Cluster, node: u32);
    /// Kill a node's power supply.
    PsuFailure("psu-failure", Cluster, node: u32);
    /// Start a runaway memory leak on a node.
    MemoryLeak("memory-leak", Cluster, node: u32);
    /// Freeze a node's chassis temperature probe at its last reading.
    ProbeStuck("probe-stuck", Cluster, node: u32);
    /// Skew a node's chassis temperature probe by the given °C.
    ProbeSkew("probe-skew", Cluster, node: u32, delta: f64);
    /// Repair a node's chassis temperature probe.
    ProbeClear("probe-clear", Cluster, node: u32);
    /// Spray garbage bytes onto a node's console relay.
    ConsoleGarbage("console-garbage", Cluster, node: u32);
    /// Sever a sub-cluster's uplink to the federation head.
    ClusterDisconnect("cluster-disconnect", Federation, cluster: u16);
    /// Restore a sub-cluster's uplink.
    ClusterHeal("cluster-heal", Federation, cluster: u16);
}

/// Every operand key some kind takes, each once, in order of first use.
pub(crate) fn all_operands() -> impl Iterator<Item = &'static Operand> {
    let mut seen = Vec::new();
    KINDS.iter().flat_map(|k| k.operands).filter(move |op| {
        let new = !seen.contains(&op.key);
        seen.push(op.key);
        new
    })
}

/// `slug operand…`, each operand followed by its unit: the text reports
/// show and snapshot identities hash.
impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let row = KindRow::named(self.slug()).expect("every kind has a row");
        f.write_str(row.slug)?;
        for (op, arg) in row.operands.iter().zip(self.args()) {
            match arg {
                Arg::Int(i) => write!(f, " {i}{}", op.unit)?,
                Arg::Num(x) => write!(f, " {x}{}", op.unit)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manifest;

    /// A legal manifest value for an operand of each read, distinct from
    /// zero so a dropped operand cannot pass for a default.
    fn sample(read: Read) -> &'static str {
        match read {
            Read::Rack => "1",
            Read::Node => "7",
            Read::Cluster => "2",
            Read::Secs => "2.5",
            Read::Share => "0.25",
            Read::Positive => "1000",
            Read::Number => "-3.5",
        }
    }

    /// A one-fault manifest of `row`'s mode scheduling `row` at 5 s, with
    /// a sample value for each of its operands.
    fn one_fault_manifest(row: &KindRow) -> String {
        let shape = match row.mode {
            FaultMode::Cluster => "[cluster]\nnodes = 40",
            FaultMode::Federation => "[federation]\nclusters = 3\nnodes_per_cluster = 4",
        };
        let mut text = format!(
            "scenario_version = 1\nname = \"round-trip\"\n{shape}\n[run]\nduration = 10\n\
             [[fault]]\nat = 5\nkind = \"{}\"\n",
            row.slug
        );
        for op in row.operands {
            text += &format!("{} = {}\n", op.key, sample(op.read));
        }
        text
    }

    /// Every row of the vocabulary parses from a manifest of its own mode,
    /// and `Display` renders each operand back with its unit.
    #[test]
    fn every_kind_round_trips_through_a_manifest() {
        assert_eq!(KINDS.len(), 20);
        for row in KINDS {
            let m = Manifest::parse(&one_fault_manifest(row))
                .unwrap_or_else(|e| panic!("{}: {e}", row.slug));
            let (at, kind) = m.faults[0];
            assert_eq!(at, 5.0);
            assert_eq!(kind.slug(), row.slug);
            let operands: String = row
                .operands
                .iter()
                .map(|op| format!(" {}{}", sample(op.read), op.unit))
                .collect();
            assert_eq!(kind.to_string(), format!("{}{operands}", row.slug));
        }
    }
}
