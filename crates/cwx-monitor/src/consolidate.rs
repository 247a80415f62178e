//! The consolidation stage (paper §5.3.2).
//!
//! "The consolidation stage is responsible for bringing the data from
//! multiple sources together to determine if values have changed, and
//! for filtering. In the interest of efficiency this task is exclusively
//! performed on a node ... The consolidation process distinguishes
//! between static and dynamic monitoring data and transmits only data
//! that has changed since the last transmission. This reduces the
//! amount of transferred data substantially. Furthermore, monitor data
//! is cached so that simultaneous requests can be served using the same
//! set of data."

use std::collections::HashMap;

use crate::monitor::{MonitorClass, MonitorKey, Value};

/// Counters explaining where the byte savings came from (experiment E7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsolidationStats {
    /// Values evaluated.
    pub evaluated: u64,
    /// Values suppressed because they were static and already sent.
    pub suppressed_static: u64,
    /// Values suppressed because they had not changed.
    pub suppressed_unchanged: u64,
    /// Values passed to transmission.
    pub emitted: u64,
    /// Requests served from the snapshot cache without re-gathering.
    pub cache_hits: u64,
}

/// Per-monitor change tracking.
///
/// State is one `Vec` indexed by a dense *slot* the caller owns: the
/// agent offers by [`crate::monitor::MonitorDef::slot`], so a tick's 55
/// decisions are 55 indexed reads — no key hash, no key deref, no map
/// bucket. `Some` in a slot means "sent since the last reset"; whether
/// that suppresses the offer (static) or is compared (dynamic) is
/// decided by the class the offer carries. A suppressed offer clones
/// and allocates nothing (the overwhelmingly common case — see the
/// `alloc_regression` integration test).
///
/// Callers without slots of their own ([`Consolidator::offer`]: the
/// federation uplink, one tier up) get them from a key → slot table in
/// front of the same decision. One consolidator is fed one way or the
/// other — the two would otherwise name different monitors by the same
/// slot.
#[derive(Debug, Default)]
pub struct Consolidator {
    /// slot → last transmitted value, `None` until sent.
    sent: Vec<Option<Value>>,
    /// Key → slot for [`Consolidator::offer`], in first-sight order.
    keyed: HashMap<MonitorKey, u32>,
    delta_enabled: bool,
    stats: ConsolidationStats,
}

impl Consolidator {
    /// A consolidator with delta suppression enabled (the product
    /// behaviour). Pass `delta_enabled = false` for the E7 ablation
    /// (every value transmitted every tick).
    pub fn new(delta_enabled: bool) -> Self {
        Consolidator {
            delta_enabled,
            ..Default::default()
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ConsolidationStats {
        self.stats
    }

    /// Record a cache-served request (the agent increments this when a
    /// second consumer asks within the cache window).
    pub fn note_cache_hit(&mut self) {
        self.stats.cache_hits += 1;
    }

    /// Decide whether the value of the monitor in `slot` must be
    /// transmitted this tick, and record it as sent if so. Suppressed
    /// offers clone nothing.
    pub fn offer_slot(&mut self, slot: usize, class: MonitorClass, value: &Value) -> bool {
        debug_assert!(self.keyed.is_empty(), "offered by slot and by key");
        self.decide(slot, class, value)
    }

    /// [`Consolidator::offer_slot`] for a static monitor, decided without
    /// its value: true, counted exactly as a suppressed offer, when the
    /// slot was sent since the last reset (and delta suppression is on),
    /// so the caller need not extract the value at all.
    pub fn suppress_sent_static(&mut self, slot: usize) -> bool {
        debug_assert!(self.keyed.is_empty(), "offered by slot and by key");
        if !self.delta_enabled || !self.sent.get(slot).is_some_and(Option::is_some) {
            return false;
        }
        self.stats.evaluated += 1;
        self.stats.suppressed_static += 1;
        true
    }

    /// [`Consolidator::offer_slot`] for callers that know monitors by
    /// key only: the slot is the key's first-sight index.
    pub fn offer(&mut self, key: &MonitorKey, class: MonitorClass, value: &Value) -> bool {
        debug_assert!(
            self.sent.len() <= self.keyed.len(),
            "offered by slot and by key"
        );
        let slot = match self.keyed.get(key) {
            Some(&slot) => slot,
            None => {
                let slot = self.keyed.len() as u32;
                self.keyed.insert(key.clone(), slot);
                slot
            }
        };
        self.decide(slot as usize, class, value)
    }

    fn decide(&mut self, slot: usize, class: MonitorClass, value: &Value) -> bool {
        self.stats.evaluated += 1;
        if !self.delta_enabled {
            self.stats.emitted += 1;
            return true;
        }
        if slot >= self.sent.len() {
            self.sent.resize_with(slot + 1, || None);
        }
        match (&self.sent[slot], class) {
            (Some(_), MonitorClass::Static) => {
                self.stats.suppressed_static += 1;
                false
            }
            (Some(prev), MonitorClass::Dynamic) if prev.same_as(value) => {
                self.stats.suppressed_unchanged += 1;
                false
            }
            _ => {
                self.sent[slot] = Some(value.clone());
                self.stats.emitted += 1;
                true
            }
        }
    }

    /// Forget everything sent (e.g. after the server asks for a full
    /// resync or the node reboots): the next tick retransmits every
    /// value. Slots are stable for the life of the consolidator.
    pub fn reset(&mut self) {
        self.sent.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> MonitorKey {
        MonitorKey::new(s)
    }

    #[test]
    fn static_values_sent_exactly_once() {
        let mut c = Consolidator::new(true);
        let k = key("mem.total");
        assert!(c.offer(&k, MonitorClass::Static, &Value::Num(1024.0)));
        for _ in 0..10 {
            assert!(!c.offer(&k, MonitorClass::Static, &Value::Num(1024.0)));
        }
        assert_eq!(c.stats().suppressed_static, 10);
        assert_eq!(c.stats().emitted, 1);
    }

    #[test]
    fn dynamic_values_sent_on_change_only() {
        let mut c = Consolidator::new(true);
        let k = key("mem.free");
        assert!(c.offer(&k, MonitorClass::Dynamic, &Value::Num(100.0)));
        assert!(!c.offer(&k, MonitorClass::Dynamic, &Value::Num(100.0)));
        assert!(c.offer(&k, MonitorClass::Dynamic, &Value::Num(90.0)));
        assert!(!c.offer(&k, MonitorClass::Dynamic, &Value::Num(90.0)));
        assert_eq!(c.stats().emitted, 2);
        assert_eq!(c.stats().suppressed_unchanged, 2);
    }

    #[test]
    fn ablation_mode_transmits_everything() {
        let mut c = Consolidator::new(false);
        let k = key("mem.free");
        for _ in 0..5 {
            assert!(c.offer(&k, MonitorClass::Dynamic, &Value::Num(1.0)));
        }
        let k2 = key("mem.total");
        for _ in 0..5 {
            assert!(c.offer(&k2, MonitorClass::Static, &Value::Num(1.0)));
        }
        assert_eq!(c.stats().emitted, 10);
        assert_eq!(c.stats().suppressed_unchanged, 0);
        assert_eq!(c.stats().suppressed_static, 0);
    }

    #[test]
    fn reset_forces_full_retransmission() {
        let mut c = Consolidator::new(true);
        let ks = key("mem.total");
        let kd = key("mem.free");
        assert!(c.offer(&ks, MonitorClass::Static, &Value::Num(1.0)));
        assert!(c.offer(&kd, MonitorClass::Dynamic, &Value::Num(2.0)));
        c.reset();
        assert!(c.offer(&ks, MonitorClass::Static, &Value::Num(1.0)));
        assert!(c.offer(&kd, MonitorClass::Dynamic, &Value::Num(2.0)));
    }

    #[test]
    fn static_after_reset_retransmits_once() {
        let mut c = Consolidator::new(true);
        assert!(c.offer_slot(3, MonitorClass::Static, &Value::Num(1.0)));
        assert!(!c.offer_slot(3, MonitorClass::Static, &Value::Num(1.0)));
        c.reset();
        assert!(c.offer_slot(3, MonitorClass::Static, &Value::Num(1.0)));
        for _ in 0..5 {
            assert!(!c.offer_slot(3, MonitorClass::Static, &Value::Num(1.0)));
        }
        assert_eq!(c.stats().emitted, 2);
        assert_eq!(c.stats().suppressed_static, 6);
    }

    #[test]
    fn slots_may_arrive_sparse_and_out_of_order() {
        let mut c = Consolidator::new(true);
        assert!(c.offer_slot(40, MonitorClass::Dynamic, &Value::Num(1.0)));
        assert!(c.offer_slot(2, MonitorClass::Dynamic, &Value::Num(1.0)));
        assert!(!c.offer_slot(40, MonitorClass::Dynamic, &Value::Num(1.0)));
        // a slot never offered before holds nothing: its first value goes
        assert!(c.offer_slot(7, MonitorClass::Static, &Value::Num(1.0)));
    }

    proptest::proptest! {
        /// The keyed front is only a lookup: any offer sequence (changing
        /// values, both classes, text, resets, ablation) decides the same
        /// through `offer` as through `offer_slot`.
        #[test]
        fn slot_path_equals_keyed_path(
            ops in proptest::collection::vec((0usize..12, 0u8..6, proptest::any::<bool>()), 1..300),
            delta in proptest::any::<bool>(),
        ) {
            let keys: Vec<MonitorKey> = (0..12).map(|i| key(&format!("g{}.m{i}", i % 3))).collect();
            // the keyed table numbers keys by first sight; give the slot
            // side the registry's numbering instead (any fixed one works)
            let slot_of = |k: usize| (k * 5) % 12;
            let mut by_key = Consolidator::new(delta);
            let mut by_slot = Consolidator::new(delta);
            for (k, v, reset) in ops {
                if reset && v == 0 {
                    by_key.reset();
                    by_slot.reset();
                }
                let class = if k % 4 == 0 { MonitorClass::Static } else { MonitorClass::Dynamic };
                let value = if k % 5 == 1 {
                    Value::Text(format!("s{}", v / 2))
                } else {
                    Value::Num((v / 2) as f64)
                };
                proptest::prop_assert_eq!(
                    by_key.offer(&keys[k], class, &value),
                    by_slot.offer_slot(slot_of(k), class, &value)
                );
            }
            proptest::prop_assert_eq!(by_key.stats(), by_slot.stats());
        }
    }

    proptest::proptest! {
        /// Skipping a sent static unread decides and counts exactly what
        /// offering its (unchanged) value would have.
        #[test]
        fn sent_static_skip_equals_offer(
            ops in proptest::collection::vec((0usize..8, proptest::any::<bool>()), 1..200),
            delta in proptest::any::<bool>(),
        ) {
            let value = Value::Text("Pentium III (Coppermine) 1000MHz".into());
            let mut skipping = Consolidator::new(delta);
            let mut offering = Consolidator::new(delta);
            for (slot, reset) in ops {
                if reset && slot == 0 {
                    skipping.reset();
                    offering.reset();
                }
                let sent = !skipping.suppress_sent_static(slot)
                    && skipping.offer_slot(slot, MonitorClass::Static, &value);
                proptest::prop_assert_eq!(
                    sent,
                    offering.offer_slot(slot, MonitorClass::Static, &value)
                );
            }
            proptest::prop_assert_eq!(skipping.stats(), offering.stats());
        }
    }

    #[test]
    fn text_values_delta_compare() {
        let mut c = Consolidator::new(true);
        let k = key("site.status");
        assert!(c.offer(&k, MonitorClass::Dynamic, &Value::Text("ok".into())));
        assert!(!c.offer(&k, MonitorClass::Dynamic, &Value::Text("ok".into())));
        assert!(c.offer(&k, MonitorClass::Dynamic, &Value::Text("degraded".into())));
    }

    #[test]
    fn stats_add_up() {
        let mut c = Consolidator::new(true);
        let k = key("x");
        c.offer(&k, MonitorClass::Dynamic, &Value::Num(1.0));
        c.offer(&k, MonitorClass::Dynamic, &Value::Num(1.0));
        c.offer(&k, MonitorClass::Dynamic, &Value::Num(2.0));
        let s = c.stats();
        assert_eq!(s.evaluated, 3);
        assert_eq!(
            s.emitted + s.suppressed_unchanged + s.suppressed_static,
            s.evaluated
        );
    }
}
