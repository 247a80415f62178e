//! The monitor registry: built-in monitors and plug-ins.
//!
//! "ClusterWorX can virtually monitor any system function including CPU
//! usage, CPU type, network bandwidth, memory usage, disk I/O and system
//! uptime. It comes standard with over 40 monitors built in. ... In
//! addition, ClusterWorX offers plug-in support so administrators can
//! include their own monitors. ... as long as it resides in the
//! ClusterWorX plug-in directory it will be recognized by the system
//! automatically."

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::snapshot::Snapshot;

/// A monitor's identity, e.g. `"cpu.util"` or `"net.eth0.rx_rate"`.
///
/// Internally a shared `Arc<str>`: keys flow through every report, every
/// per-node last-value map and every decoder dictionary, so cloning them
/// must be a refcount bump, not a heap allocation — at tens of thousands
/// of agent connections the difference is tens of megabytes of resident
/// duplicate strings and an allocation per value on the ingest hot path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonitorKey(Arc<str>);

impl MonitorKey {
    /// Build from anything stringy.
    pub fn new(s: impl AsRef<str>) -> Self {
        MonitorKey(Arc::from(s.as_ref()))
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for MonitorKey {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for MonitorKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MonitorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Whether a value ever changes after boot. The consolidation stage
/// "distinguishes between static and dynamic monitoring data" and sends
/// static values once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorClass {
    /// Fixed for the life of the boot (total RAM, CPU count, CPU type).
    Static,
    /// Changes over time.
    Dynamic,
}

/// A monitored value. Text keeps the platform-independent,
/// human-readable representation the paper insists on.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A numeric reading.
    Num(f64),
    /// A textual reading (CPU type, kernel version, ...).
    Text(String),
}

impl Value {
    /// Numeric accessor.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Text(_) => None,
        }
    }

    /// Render for the text wire format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the text wire rendering to `out` (the encoder writes every
    /// value of a report into one buffer).
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            // trim trailing zeros so unchanged values render identically
            Value::Num(x) => {
                let _ = if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(out, "{}", *x as i64)
                } else {
                    write!(out, "{x:.3}")
                };
            }
            Value::Text(s) => out.push_str(s),
        }
    }

    /// Equality for change detection (numeric values compare exactly;
    /// the gatherers produce bit-identical numbers for unchanged
    /// sources).
    pub fn same_as(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

/// The extraction function of a registered monitor: the snapshot in, a
/// value out. Plug-ins are exactly this signature, which models "any
/// program, script (shell, perl, etc.)" producing a value; one may keep
/// state of its own from tick to tick.
pub type ExtractFn = Box<dyn FnMut(&Snapshot) -> Option<Value> + Send>;

/// A built-in monitor's extractor: a pure function of the snapshot, so
/// one table of them serves every agent in the process, on any thread.
type BuiltinFn = Box<dyn Fn(&Snapshot) -> Option<Value> + Send + Sync>;

/// A registered monitor's description.
#[derive(Debug, Clone)]
pub struct MonitorDef {
    /// Identity.
    pub key: MonitorKey,
    /// Static/dynamic classification.
    pub class: MonitorClass,
    /// Unit label for display ("kB", "%", "°C", ...).
    pub unit: &'static str,
    /// Whether this came from the plug-in directory.
    pub plugin: bool,
    slot: u32,
}

impl MonitorDef {
    /// The registry's dense index for this monitor: assigned in
    /// registration order, kept when the key is re-registered, never
    /// handed to another key. The consolidator keeps its per-monitor
    /// state in a `Vec` indexed by it.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// One monitor of a [`Registry::iter_mut`] walk: its description (by
/// `Deref`) and its extractor.
pub struct Monitor<'a> {
    def: &'a MonitorDef,
    extract: Extractor<'a>,
}

enum Extractor<'a> {
    Builtin(&'a BuiltinFn),
    Own(&'a mut ExtractFn),
}

impl Monitor<'_> {
    /// Evaluate the monitor against a snapshot.
    pub fn extract(&mut self, snap: &Snapshot) -> Option<Value> {
        match &mut self.extract {
            Extractor::Builtin(f) => f(snap),
            Extractor::Own(f) => f(snap),
        }
    }

    /// Whether this is a built-in: a pure function of the snapshot that
    /// always yields a value when it is static.
    pub(crate) fn is_builtin(&self) -> bool {
        matches!(self.extract, Extractor::Builtin(_))
    }
}

impl std::ops::Deref for Monitor<'_> {
    type Target = MonitorDef;

    fn deref(&self) -> &MonitorDef {
        self.def
    }
}

struct Builtin {
    def: MonitorDef,
    extract: BuiltinFn,
}

/// The built-in monitors for one interface list, in key order. Slots
/// are registration order, as a registry installing them one by one
/// would hand them out.
#[derive(Default)]
struct Builtins(Vec<Builtin>);

/// A monitor a registry holds itself: a plug-in, or a monitor registered
/// in place of a built-in.
struct Own {
    def: MonitorDef,
    extract: ExtractFn,
    /// How many built-ins sort before this key: where the walk takes it.
    at: usize,
}

/// The interfaces an agent monitors.
const AGENT_INTERFACES: [&str; 2] = ["lo", "eth0"];

/// The set of monitors an agent evaluates each tick.
///
/// Built-ins are pure functions of the snapshot, so registries share one
/// table of them (an agent's is built once per process); a registry
/// holds only what it registers itself, plus a mark for each built-in
/// it replaced or removed. The walk merges the two in key order.
#[derive(Default)]
pub struct Registry {
    builtins: Option<Arc<Builtins>>,
    /// Built-ins replaced or unregistered here, by table index (empty
    /// until the first one is).
    hidden: Vec<bool>,
    /// This registry's own monitors, in key order.
    own: Vec<Own>,
    /// Slots handed out so far (monotonic: unregistering frees none).
    slots: u32,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("builtins", &self.builtin_table().len())
            .field("hidden", &self.hidden)
            .field("own", &self.own.iter().map(|o| &o.def).collect::<Vec<_>>())
            .field("slots", &self.slots)
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry with all built-in monitors for the given interface
    /// names (typically `["lo", "eth0"]`).
    pub fn with_builtins(interfaces: &[&str]) -> Self {
        Self::over(Arc::new(Builtins::new(interfaces)))
    }

    /// The built-ins for an agent's interfaces (`lo`, `eth0`), over the
    /// one table every agent of the process shares.
    pub(crate) fn for_agent() -> Self {
        static TABLE: OnceLock<Arc<Builtins>> = OnceLock::new();
        let table = TABLE.get_or_init(|| Arc::new(Builtins::new(&AGENT_INTERFACES)));
        Self::over(Arc::clone(table))
    }

    fn over(builtins: Arc<Builtins>) -> Self {
        Registry {
            slots: builtins.0.len() as u32,
            builtins: Some(builtins),
            ..Self::default()
        }
    }

    fn builtin_table(&self) -> &[Builtin] {
        self.builtins.as_deref().map_or(&[], |b| &b.0)
    }

    fn find_builtin(&self, key: &str) -> Result<usize, usize> {
        self.builtin_table()
            .binary_search_by(|b| b.def.key.as_str().cmp(key))
    }

    fn find_own(&self, key: &str) -> Result<usize, usize> {
        self.own.binary_search_by(|o| o.def.key.as_str().cmp(key))
    }

    fn is_hidden(&self, i: usize) -> bool {
        self.hidden.get(i).copied().unwrap_or(false)
    }

    fn hide(&mut self, i: usize) {
        if self.hidden.is_empty() {
            self.hidden = vec![false; self.builtin_table().len()];
        }
        self.hidden[i] = true;
    }

    /// Number of registered monitors.
    pub fn len(&self) -> usize {
        let hidden = self.hidden.iter().filter(|&&h| h).count();
        self.builtin_table().len() - hidden + self.own.len()
    }

    /// True when no monitors are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate (in key order — deterministic wire layout).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = Monitor<'_>> {
        Walk {
            builtins: self.builtins.as_deref().map_or(&[], |b| &b.0),
            hidden: &self.hidden,
            next: 0,
            own: self.own.iter_mut().peekable(),
        }
    }

    /// Look up a monitor.
    pub fn get(&self, key: &str) -> Option<&MonitorDef> {
        if let Ok(j) = self.find_own(key) {
            return Some(&self.own[j].def);
        }
        match self.find_builtin(key) {
            Ok(i) if !self.is_hidden(i) => Some(&self.builtin_table()[i].def),
            _ => None,
        }
    }

    /// Register a monitor (replacing any previous one with the key).
    pub fn register(
        &mut self,
        key: &str,
        class: MonitorClass,
        unit: &'static str,
        f: impl FnMut(&Snapshot) -> Option<Value> + Send + 'static,
    ) {
        self.install(key, class, unit, false, Box::new(f));
    }

    /// Register an administrator plug-in. Identical surface to built-ins
    /// — "this flexible concept of plug-ins allows ClusterWorX to fit
    /// the needs of any system".
    pub fn register_plugin(
        &mut self,
        key: &str,
        class: MonitorClass,
        unit: &'static str,
        f: impl FnMut(&Snapshot) -> Option<Value> + Send + 'static,
    ) {
        self.install(key, class, unit, true, Box::new(f));
    }

    fn install(
        &mut self,
        key: &str,
        class: MonitorClass,
        unit: &'static str,
        plugin: bool,
        extract: ExtractFn,
    ) {
        let def = |slot| MonitorDef {
            key: MonitorKey::new(key),
            class,
            unit,
            plugin,
            slot,
        };
        match self.find_own(key) {
            // a replaced monitor is the same series: it keeps its slot
            Ok(j) => {
                let own = &mut self.own[j];
                own.def = def(own.def.slot);
                own.extract = extract;
            }
            Err(j) => {
                let (at, slot) = match self.find_builtin(key) {
                    // so does a replaced built-in, which leaves the walk
                    Ok(i) if !self.is_hidden(i) => {
                        self.hide(i);
                        (i, self.builtin_table()[i].def.slot)
                    }
                    Ok(at) | Err(at) => {
                        self.slots += 1;
                        (at, self.slots - 1)
                    }
                };
                let def = def(slot);
                self.own.insert(j, Own { def, extract, at });
            }
        }
    }

    /// Remove a monitor; true if it existed.
    pub fn unregister(&mut self, key: &str) -> bool {
        if let Ok(j) = self.find_own(key) {
            self.own.remove(j);
            return true;
        }
        match self.find_builtin(key) {
            Ok(i) if !self.is_hidden(i) => {
                self.hide(i);
                true
            }
            _ => false,
        }
    }
}

/// The walk behind [`Registry::iter_mut`]: the visible built-ins, with
/// each own monitor taken just before the first built-in whose key sorts
/// after its own.
struct Walk<'a> {
    builtins: &'a [Builtin],
    hidden: &'a [bool],
    next: usize,
    own: std::iter::Peekable<std::slice::IterMut<'a, Own>>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = Monitor<'a>;

    fn next(&mut self) -> Option<Monitor<'a>> {
        loop {
            let next = self.next;
            if let Some(Own { def, extract, .. }) = self.own.next_if(|o| o.at <= next) {
                return Some(Monitor {
                    def,
                    extract: Extractor::Own(extract),
                });
            }
            let b = self.builtins.get(next)?;
            self.next += 1;
            if !self.hidden.get(next).copied().unwrap_or(false) {
                return Some(Monitor {
                    def: &b.def,
                    extract: Extractor::Builtin(&b.extract),
                });
            }
        }
    }
}

impl Builtins {
    fn new(interfaces: &[&str]) -> Builtins {
        let mut b = Builtins::default();
        b.install(interfaces);
        b.0.sort_by(|x, y| x.def.key.cmp(&y.def.key));
        b
    }

    fn register(
        &mut self,
        key: &str,
        class: MonitorClass,
        unit: &'static str,
        f: impl Fn(&Snapshot) -> Option<Value> + Send + Sync + 'static,
    ) {
        let def = MonitorDef {
            key: MonitorKey::new(key),
            class,
            unit,
            plugin: false,
            slot: self.0.len() as u32,
        };
        self.0.push(Builtin {
            def,
            extract: Box::new(f),
        });
    }

    fn install(&mut self, interfaces: &[&str]) {
        use MonitorClass::{Dynamic, Static};
        let pct = |x: f64| Value::Num((x * 100.0 * 10.0).round() / 10.0);

        // --- CPU ---
        self.register("cpu.util_pct", Dynamic, "%", move |s| {
            Some(pct(s.cpu_utilization()))
        });
        self.register("cpu.user", Dynamic, "jiffies", |s| {
            Some(Value::Num(s.stat.total.user as f64))
        });
        self.register("cpu.nice", Dynamic, "jiffies", |s| {
            Some(Value::Num(s.stat.total.nice as f64))
        });
        self.register("cpu.system", Dynamic, "jiffies", |s| {
            Some(Value::Num(s.stat.total.system as f64))
        });
        self.register("cpu.idle", Dynamic, "jiffies", |s| {
            Some(Value::Num(s.stat.total.idle as f64))
        });
        self.register("cpu.count", Static, "", |s| {
            Some(Value::Num(s.stat.ncpu.max(1) as f64))
        });
        self.register("cpu.type", Static, "", |_| {
            Some(Value::Text("Pentium III (Coppermine) 1000MHz".into()))
        });
        self.register("kernel.ctxt_rate", Dynamic, "/s", |s| {
            Some(Value::Num(s.ctxt_rate().round()))
        });
        self.register("kernel.fork_rate", Dynamic, "/s", |s| {
            Some(Value::Num(s.fork_rate().round()))
        });
        self.register("kernel.btime", Static, "s", |s| {
            Some(Value::Num(s.stat.btime as f64))
        });

        // --- load / tasks ---
        self.register("load.one", Dynamic, "", |s| Some(Value::Num(s.load.one)));
        self.register("load.five", Dynamic, "", |s| Some(Value::Num(s.load.five)));
        self.register("load.fifteen", Dynamic, "", |s| {
            Some(Value::Num(s.load.fifteen))
        });
        self.register("procs.running", Dynamic, "", |s| {
            Some(Value::Num(s.load.running as f64))
        });
        self.register("procs.total", Dynamic, "", |s| {
            Some(Value::Num(s.load.total as f64))
        });
        self.register("procs.blocked", Dynamic, "", |s| {
            Some(Value::Num(s.stat.procs_blocked as f64))
        });
        self.register("procs.last_pid", Dynamic, "", |s| {
            Some(Value::Num(s.load.last_pid as f64))
        });

        // --- memory ---
        self.register("mem.total", Static, "kB", |s| {
            Some(Value::Num(s.mem.total_kb as f64))
        });
        self.register("mem.free", Dynamic, "kB", |s| {
            Some(Value::Num(s.mem.free_kb as f64))
        });
        self.register("mem.used", Dynamic, "kB", |s| {
            Some(Value::Num(s.mem.used_kb() as f64))
        });
        self.register("mem.used_pct", Dynamic, "%", move |s| {
            Some(pct(s.mem.used_fraction()))
        });
        self.register("mem.buffers", Dynamic, "kB", |s| {
            Some(Value::Num(s.mem.buffers_kb as f64))
        });
        self.register("mem.cached", Dynamic, "kB", |s| {
            Some(Value::Num(s.mem.cached_kb as f64))
        });
        self.register("swap.total", Static, "kB", |s| {
            Some(Value::Num(s.mem.swap_total_kb as f64))
        });
        self.register("swap.free", Dynamic, "kB", |s| {
            Some(Value::Num(s.mem.swap_free_kb as f64))
        });
        self.register("swap.used", Dynamic, "kB", |s| {
            Some(Value::Num(
                s.mem.swap_total_kb.saturating_sub(s.mem.swap_free_kb) as f64,
            ))
        });

        // --- uptime ---
        self.register("uptime.secs", Dynamic, "s", |s| {
            Some(Value::Num(s.uptime.uptime_secs))
        });
        self.register("uptime.idle_secs", Dynamic, "s", |s| {
            Some(Value::Num(s.uptime.idle_secs))
        });

        // --- network, per interface ---
        for &ifc in interfaces {
            let name = ifc.to_string();
            self.register(&format!("net.{ifc}.rx_bytes"), Dynamic, "B", {
                let name = name.clone();
                move |s: &Snapshot| {
                    s.net
                        .iter()
                        .find(|i| i.name == name.as_str())
                        .map(|i| Value::Num(i.rx_bytes as f64))
                }
            });
            self.register(&format!("net.{ifc}.tx_bytes"), Dynamic, "B", {
                let name = name.clone();
                move |s: &Snapshot| {
                    s.net
                        .iter()
                        .find(|i| i.name == name.as_str())
                        .map(|i| Value::Num(i.tx_bytes as f64))
                }
            });
            self.register(&format!("net.{ifc}.rx_packets"), Dynamic, "", {
                let name = name.clone();
                move |s: &Snapshot| {
                    s.net
                        .iter()
                        .find(|i| i.name == name.as_str())
                        .map(|i| Value::Num(i.rx_packets as f64))
                }
            });
            self.register(&format!("net.{ifc}.tx_packets"), Dynamic, "", {
                let name = name.clone();
                move |s: &Snapshot| {
                    s.net
                        .iter()
                        .find(|i| i.name == name.as_str())
                        .map(|i| Value::Num(i.tx_packets as f64))
                }
            });
            self.register(&format!("net.{ifc}.rx_errs"), Dynamic, "", {
                let name = name.clone();
                move |s: &Snapshot| {
                    s.net
                        .iter()
                        .find(|i| i.name == name.as_str())
                        .map(|i| Value::Num(i.rx_errs as f64))
                }
            });
            self.register(&format!("net.{ifc}.tx_errs"), Dynamic, "", {
                let name = name.clone();
                move |s: &Snapshot| {
                    s.net
                        .iter()
                        .find(|i| i.name == name.as_str())
                        .map(|i| Value::Num(i.tx_errs as f64))
                }
            });
            self.register(&format!("net.{ifc}.rx_rate"), Dynamic, "B/s", {
                let name = name.clone();
                move |s: &Snapshot| Some(Value::Num(s.if_rate(&name, true).round()))
            });
            self.register(&format!("net.{ifc}.tx_rate"), Dynamic, "B/s", {
                let name = name.clone();
                move |s: &Snapshot| Some(Value::Num(s.if_rate(&name, false).round()))
            });
        }

        // --- disk I/O (aggregate over block devices) ---
        self.register("disk.reads", Dynamic, "", |s| {
            Some(Value::Num(
                s.disks.iter().map(|d| d.reads).sum::<u64>() as f64
            ))
        });
        self.register("disk.writes", Dynamic, "", |s| {
            Some(Value::Num(
                s.disks.iter().map(|d| d.writes).sum::<u64>() as f64
            ))
        });
        self.register("disk.io_rate", Dynamic, "ops/s", |s| {
            Some(Value::Num(s.disk_io_rate().round()))
        });
        self.register("disk.byte_rate", Dynamic, "B/s", |s| {
            Some(Value::Num(s.disk_byte_rate().round()))
        });
        self.register("disk.count", Static, "", |s| {
            Some(Value::Num(s.disks.len() as f64))
        });

        // --- sensors (ICE Box probes / lm_sensors) ---
        self.register("temp.cpu", Dynamic, "C", |s| {
            Some(Value::Num((s.sensors.cpu_temp_c * 10.0).round() / 10.0))
        });
        self.register("temp.board", Dynamic, "C", |s| {
            Some(Value::Num((s.sensors.board_temp_c * 10.0).round() / 10.0))
        });
        self.register("fan.cpu_rpm", Dynamic, "rpm", |s| {
            Some(Value::Num(s.sensors.fan_rpm.round()))
        });
        self.register("power.watts", Dynamic, "W", |s| {
            Some(Value::Num(s.sensors.power_watts.round()))
        });
        self.register("net.connectivity", Dynamic, "", |s| {
            Some(Value::Num(s.sensors.udp_echo_ok as u8 as f64))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn builtins_exceed_forty_monitors() {
        let r = Registry::with_builtins(&["lo", "eth0"]);
        assert!(
            r.len() > 40,
            "paper: 'over 40 monitors built in', got {}",
            r.len()
        );
    }

    #[test]
    fn static_and_dynamic_both_present() {
        let r = Registry::with_builtins(&["eth0"]);
        assert_eq!(r.get("mem.total").unwrap().class, MonitorClass::Static);
        assert_eq!(r.get("mem.free").unwrap().class, MonitorClass::Dynamic);
        assert_eq!(r.get("cpu.type").unwrap().class, MonitorClass::Static);
    }

    #[test]
    fn extraction_reads_snapshot() {
        let mut r = Registry::with_builtins(&["eth0"]);
        let mut snap = Snapshot::default();
        snap.mem.total_kb = 1_048_576;
        snap.mem.free_kb = 524_288;
        let mut values = BTreeMap::new();
        for mut m in r.iter_mut() {
            if let Some(v) = m.extract(&snap) {
                values.insert(m.key.clone(), v);
            }
        }
        assert_eq!(
            values.get(&MonitorKey::new("mem.total")),
            Some(&Value::Num(1_048_576.0))
        );
        assert_eq!(
            values.get(&MonitorKey::new("mem.used_pct")),
            Some(&Value::Num(50.0))
        );
    }

    #[test]
    fn plugin_registration_and_removal() {
        let mut r = Registry::new();
        r.register_plugin("site.gpfs_health", MonitorClass::Dynamic, "", |_| {
            Some(Value::Text("ok".into()))
        });
        assert_eq!(r.len(), 1);
        assert!(r.get("site.gpfs_health").unwrap().plugin);
        assert!(r.unregister("site.gpfs_health"));
        assert!(!r.unregister("site.gpfs_health"));
    }

    #[test]
    fn slots_are_dense_stable_and_never_reused() {
        let mut r = Registry::with_builtins(&["lo", "eth0"]);
        let n = r.len();
        let mut slots: Vec<usize> = r.iter_mut().map(|m| m.slot()).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..n).collect::<Vec<_>>());
        // a plug-in registered later takes the next slot
        r.register_plugin("site.a", MonitorClass::Dynamic, "", |_| None);
        assert_eq!(r.get("site.a").unwrap().slot(), n);
        // replacing a monitor keeps its slot (same series) ...
        let mem_free = r.get("mem.free").unwrap().slot();
        r.register("mem.free", MonitorClass::Dynamic, "kB", |_| None);
        r.register_plugin("site.a", MonitorClass::Dynamic, "", |_| None);
        assert_eq!(r.get("mem.free").unwrap().slot(), mem_free);
        assert_eq!(r.get("site.a").unwrap().slot(), n);
        // ... but a slot freed by unregister is not handed out again
        assert!(r.unregister("site.a"));
        r.register_plugin("site.b", MonitorClass::Dynamic, "", |_| None);
        r.register_plugin("site.a", MonitorClass::Dynamic, "", |_| None);
        assert_eq!(r.get("site.b").unwrap().slot(), n + 1);
        assert_eq!(r.get("site.a").unwrap().slot(), n + 2);
    }

    #[test]
    fn walk_merges_own_monitors_in_key_order() {
        let mut r = Registry::with_builtins(&["lo", "eth0"]);
        let builtin_keys: Vec<String> = r.iter_mut().map(|m| m.key.to_string()).collect();
        for key in [
            "aaa.first",
            "disk.queue_depth",
            "site.a",
            "zzz.last",
            "load.one",
        ] {
            r.register_plugin(key, MonitorClass::Dynamic, "", |_| None);
        }
        assert!(r.unregister("mem.free"));
        let mut want: Vec<String> = builtin_keys
            .into_iter()
            .filter(|k| k != "mem.free")
            .chain(["aaa.first", "disk.queue_depth", "site.a", "zzz.last"].map(String::from))
            .collect();
        want.sort();
        let walked: Vec<(String, bool)> = r
            .iter_mut()
            .map(|m| (m.key.to_string(), m.plugin))
            .collect();
        assert_eq!(
            walked.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            want.iter().collect::<Vec<_>>()
        );
        assert_eq!(r.len(), want.len());
        // the replacement is walked once, as the plug-in, in its slot
        assert!(walked.contains(&("load.one".into(), true)));
        assert!(r.get("mem.free").is_none());
        // another registry over the shared table sees none of it
        let mut a = Registry::for_agent();
        let mut b = Registry::for_agent();
        a.register_plugin("site.a", MonitorClass::Dynamic, "", |_| None);
        assert!(a.unregister("cpu.type"));
        assert_eq!(b.len(), Registry::with_builtins(&["lo", "eth0"]).len());
        assert!(b.iter_mut().all(|m| !m.plugin));
        assert!(b.get("cpu.type").is_some() && b.get("site.a").is_none());
    }

    #[test]
    fn value_rendering() {
        assert_eq!(Value::Num(42.0).render(), "42");
        assert_eq!(Value::Num(0.5).render(), "0.500");
        assert_eq!(Value::Text("x y".into()).render(), "x y");
        // render_into appends, in exactly render()'s text
        let mut out = String::from("k=");
        for v in [
            Value::Num(-3.0),
            Value::Num(1e15),
            Value::Num(-0.0004),
            Value::Num(f64::NAN),
            Value::Num(f64::INFINITY),
            Value::Text("a=b".into()),
        ] {
            let before = out.len();
            v.render_into(&mut out);
            assert_eq!(&out[before..], v.render());
        }
        assert!(out.starts_with("k=-3"));
        assert_eq!(Value::Num(1e15).render(), "1000000000000000.000");
    }

    #[test]
    fn value_same_as_semantics() {
        assert!(Value::Num(1.0).same_as(&Value::Num(1.0)));
        assert!(!Value::Num(1.0).same_as(&Value::Num(1.0001)));
        assert!(Value::Num(f64::NAN).same_as(&Value::Num(f64::NAN)));
        assert!(Value::Text("a".into()).same_as(&Value::Text("a".into())));
        assert!(!Value::Num(1.0).same_as(&Value::Text("1".into())));
    }

    #[test]
    fn missing_interface_yields_none() {
        let mut r = Registry::with_builtins(&["myri0"]);
        let snap = Snapshot::default(); // no interfaces at all
        let mut got_any = false;
        for mut m in r.iter_mut() {
            if m.key.as_str() == "net.myri0.rx_bytes" {
                got_any = true;
                assert!(m.extract(&snap).is_none());
            }
        }
        assert!(got_any);
    }
}
