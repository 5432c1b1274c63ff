//! Message fault injection: drop, duplicate, or delay messages matching a
//! predicate, with dead-letter retention so the protocol layer can repair
//! delivery (retry/timeout re-send) instead of wedging quiescence forever.
//!
//! Faults apply at *send* time, modeling a lossy network between the
//! sender's scheduler and the receiver's queue:
//!
//! * **Drop** — the sender believes the message left (quiescence counters
//!   see a send with no matching receive, exactly like a lost packet); the
//!   runtime retains the message in a dead-letter store, and
//!   [`crate::Runtime::redeliver_dead_letters`] models the sender's
//!   retransmission after a timeout.
//! * **Duplicate** — the destination receives the original plus one extra
//!   copy with an empty payload (a re-sent header whose body the protocol
//!   must treat idempotently; delivering the body twice would double-fold
//!   force contributions, which is not the failure mode modeled here).
//! * **Corrupt** — flip N payload bytes in flight. The runtime stamps a
//!   payload CRC on the message at send time whenever a corrupt rule is
//!   installed; delivery verifies it and *rejects* the damaged copy
//!   (`msgs_crc_rejected`, counted as dropped), while a clean copy is
//!   retained as a dead letter so the repair loop re-sends it — the same
//!   end-to-end story the `proc` backend's frame CRC enforces for real.
//! * **Delay** — delivery is postponed by a fixed virtual latency on the
//!   DES; the threads backend (which cannot delay wall-clock delivery)
//!   demotes the message behind all normal-priority work instead.
//! * **Kill** — the *destination PE* dies the instant the matching message
//!   would be delivered (the message itself is lost with it, counted in
//!   `msgs_dropped` but *not* retained as a dead letter — the machine it
//!   was addressed to no longer exists). The run cannot reach quiescence;
//!   the backend reports the casualty via [`crate::Runtime::crashed`] and
//!   the recovery layer restarts from the latest checkpoint. This models a
//!   process/node death mid-run, the failure mode checkpoint/restart
//!   exists for, rather than a transient network fault.
//!
//! Every application is counted in [`crate::SummaryStats`]
//! (`msgs_dropped`, `msgs_duplicated`, `msgs_delayed`, `msgs_redelivered`),
//! feeding the message-conservation oracle.

use crate::msg::{EntryId, Pe};
use crate::wire::EntryTable;

/// What to do to a matching message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Lose the message in the network (retained as a dead letter).
    Drop,
    /// Deliver the original plus one empty-payload copy.
    Duplicate,
    /// Postpone delivery by this many (virtual) seconds.
    Delay(f64),
    /// Kill the destination PE at delivery time (process death; the
    /// message dies with it).
    Kill,
    /// Flip this many payload bytes in flight (each XOR 0xFF). The payload
    /// CRC rejects the damaged copy at delivery; a clean copy is retained
    /// as a dead letter for repair.
    Corrupt(u32),
}

/// One fault rule: an action plus a predicate over
/// (entry kind, source PE, destination PE) and an occurrence window.
/// `None` predicate fields are wildcards.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    pub action: FaultAction,
    /// Entry-method *name* (resolved against the runtime's registry when
    /// the plan is installed), e.g. `"PatchRecvForces"`.
    pub entry: Option<String>,
    pub src_pe: Option<Pe>,
    pub dst_pe: Option<Pe>,
    /// Skip the first `skip` matching messages (an occurrence index: for
    /// per-step protocols, the k-th matching message of a kind is the k-th
    /// step's instance of it).
    pub skip: u64,
    /// Apply to at most `limit` messages after the skipped ones.
    pub limit: u64,
}

impl FaultRule {
    /// A rule with wildcard predicates applying to the first match only.
    pub fn new(action: FaultAction) -> Self {
        FaultRule { action, entry: None, src_pe: None, dst_pe: None, skip: 0, limit: 1 }
    }

    /// Restrict to one entry-method name.
    pub fn entry(mut self, name: &str) -> Self {
        self.entry = Some(name.to_string());
        self
    }

    /// Occurrence window: skip `skip` matches, then apply to `limit`.
    pub fn window(mut self, skip: u64, limit: u64) -> Self {
        self.skip = skip;
        self.limit = limit;
        self
    }
}

/// An ordered list of fault rules. Cloneable (it is pure description), so
/// it can live in a `SimConfig` and be installed fresh into each phase's
/// runtime via [`crate::Runtime::set_fault_plan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultPlan { rules }
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The same plan with every [`FaultAction::Kill`] rule removed. The
    /// recovery layer installs this after a crash: fault counters restart
    /// fresh each phase, so leaving the kill rule in place would fell the
    /// resumed run at the same message forever (and a kill models a
    /// one-shot hardware death, not a repeating one). `None` if nothing
    /// remains.
    pub fn without_kills(&self) -> Option<FaultPlan> {
        let rules: Vec<FaultRule> = self
            .rules
            .iter()
            .filter(|r| r.action != FaultAction::Kill)
            .cloned()
            .collect();
        if rules.is_empty() { None } else { Some(FaultPlan { rules }) }
    }

    /// Does any rule kill a PE?
    pub fn has_kills(&self) -> bool {
        self.rules.iter().any(|r| r.action == FaultAction::Kill)
    }

    /// Parse a plan from the CLI grammar: semicolon-separated rules, each
    /// `action[:key=value]*` with keys `entry`, `src`, `dst`, `skip`,
    /// `limit`, (for delay) `secs`, and (for corrupt) `bytes`. Examples:
    ///
    /// ```text
    /// drop:entry=PatchRecvForces:limit=1
    /// delay:secs=1e-4:dst=2 ; dup:entry=Done
    /// kill:entry=PatchRecvForces:dst=1:skip=40
    /// corrupt:entry=PatchRecvForces:bytes=3
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for rule_text in spec.split(';') {
            let rule_text = rule_text.trim();
            if rule_text.is_empty() {
                continue;
            }
            let mut parts = rule_text.split(':').map(str::trim);
            let action_name = parts.next().unwrap_or_default();
            let mut secs: Option<f64> = None;
            let mut flip_bytes: Option<u32> = None;
            let mut rule = match action_name {
                "drop" => FaultRule::new(FaultAction::Drop),
                "dup" | "duplicate" => FaultRule::new(FaultAction::Duplicate),
                "delay" => FaultRule::new(FaultAction::Delay(0.0)),
                "kill" => FaultRule::new(FaultAction::Kill),
                "corrupt" => FaultRule::new(FaultAction::Corrupt(1)),
                other => return Err(format!("unknown fault action '{other}'")),
            };
            for kv in parts {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("fault rule field '{kv}' is not key=value"))?;
                let bad = |what: &str| format!("bad {what} '{v}' in fault rule '{rule_text}'");
                match k {
                    "entry" => rule.entry = Some(v.to_string()),
                    "src" => rule.src_pe = Some(v.parse().map_err(|_| bad("src PE"))?),
                    "dst" => rule.dst_pe = Some(v.parse().map_err(|_| bad("dst PE"))?),
                    "skip" => rule.skip = v.parse().map_err(|_| bad("skip"))?,
                    "limit" => rule.limit = v.parse().map_err(|_| bad("limit"))?,
                    "secs" => secs = Some(v.parse().map_err(|_| bad("secs"))?),
                    "bytes" => flip_bytes = Some(v.parse().map_err(|_| bad("bytes"))?),
                    other => return Err(format!("unknown fault rule key '{other}'")),
                }
            }
            if let FaultAction::Delay(ref mut d) = rule.action {
                *d = secs.ok_or_else(|| format!("delay rule '{rule_text}' needs secs=..."))?;
                if !(*d >= 0.0 && d.is_finite()) {
                    return Err(format!("delay secs must be finite and >= 0, got {d}"));
                }
            } else if secs.is_some() {
                return Err(format!("secs= only applies to delay rules ('{rule_text}')"));
            }
            if let FaultAction::Corrupt(ref mut n) = rule.action {
                if let Some(b) = flip_bytes {
                    if b == 0 {
                        return Err(format!("corrupt bytes must be >= 1 ('{rule_text}')"));
                    }
                    *n = b;
                }
            } else if flip_bytes.is_some() {
                return Err(format!("bytes= only applies to corrupt rules ('{rule_text}')"));
            }
            rules.push(rule);
        }
        if rules.is_empty() {
            return Err("empty fault plan".to_string());
        }
        Ok(FaultPlan { rules })
    }
}

/// An installed plan: rules with entry names resolved to ids, plus
/// per-rule occurrence counters. Backend-internal.
pub(crate) struct FaultState {
    rules: Vec<(FaultRule, Option<EntryId>)>,
    /// Messages matched per rule (before windowing).
    matched: Vec<u64>,
}

impl FaultState {
    /// Resolve a plan against the runtime's [`EntryTable`]. Unknown entry
    /// names are an installation error — a plan that can never match is a
    /// harness bug, not a no-op.
    pub fn install(plan: FaultPlan, entries: &EntryTable) -> Result<Self, String> {
        let mut rules = Vec::with_capacity(plan.rules.len());
        for r in plan.rules {
            let id = match &r.entry {
                Some(name) => Some(
                    entries
                        .lookup(name)
                        .ok_or_else(|| format!("fault rule names unknown entry '{name}'"))?,
                ),
                None => None,
            };
            rules.push((r, id));
        }
        let n = rules.len();
        Ok(FaultState { rules, matched: vec![0; n] })
    }

    /// Does any installed rule corrupt payloads? When true, backends stamp
    /// a payload CRC on every queued message so delivery can verify it.
    pub fn has_corruption(&self) -> bool {
        self.rules.iter().any(|(r, _)| matches!(r.action, FaultAction::Corrupt(_)))
    }

    /// Decide the fate of one outgoing message. The first rule whose
    /// predicate matches *and* whose occurrence window is open fires;
    /// rules with exhausted windows still count their matches.
    pub fn decide(&mut self, entry: EntryId, src: Pe, dst: Pe) -> Option<FaultAction> {
        for (i, (rule, id)) in self.rules.iter().enumerate() {
            let matches = id.is_none_or(|e| e == entry)
                && rule.src_pe.is_none_or(|p| p == src)
                && rule.dst_pe.is_none_or(|p| p == dst);
            if !matches {
                continue;
            }
            let k = self.matched[i];
            self.matched[i] += 1;
            if k >= rule.skip && k < rule.skip + rule.limit {
                return Some(rule.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> EntryTable {
        let mut t = EntryTable::new();
        t.register("PatchStart");
        t.register("PatchRecvForces");
        t.register("Done");
        t
    }

    #[test]
    fn parse_round_trips_the_readme_examples() {
        let p = FaultPlan::parse("drop:entry=PatchRecvForces:limit=1").unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].action, FaultAction::Drop);
        assert_eq!(p.rules[0].entry.as_deref(), Some("PatchRecvForces"));
        assert_eq!((p.rules[0].skip, p.rules[0].limit), (0, 1));

        let p = FaultPlan::parse("delay:secs=1e-4:dst=2 ; dup:entry=Done:skip=3:limit=2").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].action, FaultAction::Delay(1e-4));
        assert_eq!(p.rules[0].dst_pe, Some(2));
        assert_eq!(p.rules[1].action, FaultAction::Duplicate);
        assert_eq!((p.rules[1].skip, p.rules[1].limit), (3, 2));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("drop:entry").is_err());
        assert!(FaultPlan::parse("drop:weird=1").is_err());
        assert!(FaultPlan::parse("delay:dst=1").is_err(), "delay needs secs");
        assert!(FaultPlan::parse("drop:secs=1").is_err(), "secs is delay-only");
        assert!(FaultPlan::parse("delay:secs=-1").is_err());
    }

    #[test]
    fn parse_and_strip_kill_rules() {
        let p = FaultPlan::parse("kill:entry=Done:dst=1:skip=2 ; drop:limit=1").unwrap();
        assert!(p.has_kills());
        assert_eq!(p.rules[0].action, FaultAction::Kill);
        assert_eq!(p.rules[0].dst_pe, Some(1));
        let stripped = p.without_kills().unwrap();
        assert!(!stripped.has_kills());
        assert_eq!(stripped.rules.len(), 1);
        let only_kill = FaultPlan::parse("kill:dst=0").unwrap();
        assert!(only_kill.without_kills().is_none());
        assert!(FaultPlan::parse("kill:secs=1").is_err(), "secs is delay-only");
    }

    #[test]
    fn parse_corrupt_rules() {
        let p = FaultPlan::parse("corrupt:entry=PatchRecvForces:bytes=3:limit=2").unwrap();
        assert_eq!(p.rules[0].action, FaultAction::Corrupt(3));
        assert_eq!(p.rules[0].limit, 2);
        // bytes defaults to 1 and is corrupt-only.
        let p = FaultPlan::parse("corrupt").unwrap();
        assert_eq!(p.rules[0].action, FaultAction::Corrupt(1));
        assert!(FaultPlan::parse("corrupt:bytes=0").is_err());
        assert!(FaultPlan::parse("drop:bytes=1").is_err());
        assert!(FaultPlan::parse("corrupt:secs=1").is_err());
        let st = FaultState::install(FaultPlan::parse("corrupt").unwrap(), &names()).unwrap();
        assert!(st.has_corruption());
        let st = FaultState::install(FaultPlan::parse("drop").unwrap(), &names()).unwrap();
        assert!(!st.has_corruption());
    }

    #[test]
    fn install_rejects_unknown_entries() {
        let plan = FaultPlan::parse("drop:entry=NoSuchEntry").unwrap();
        assert!(FaultState::install(plan, &names()).is_err());
    }

    #[test]
    fn decide_applies_predicates_and_windows() {
        let plan =
            FaultPlan::parse("drop:entry=PatchRecvForces:src=0:skip=1:limit=2").unwrap();
        let mut st = FaultState::install(plan, &names()).unwrap();
        let forces = EntryId(1);
        let done = EntryId(2);
        // Wrong entry / wrong src never fire and never consume the window.
        assert_eq!(st.decide(done, 0, 1), None);
        assert_eq!(st.decide(forces, 1, 0), None);
        // Matching messages: first skipped, next two dropped, then exhausted.
        assert_eq!(st.decide(forces, 0, 1), None);
        assert_eq!(st.decide(forces, 0, 1), Some(FaultAction::Drop));
        assert_eq!(st.decide(forces, 0, 2), Some(FaultAction::Drop));
        assert_eq!(st.decide(forces, 0, 1), None);
    }

    #[test]
    fn first_open_rule_wins() {
        let plan = FaultPlan::new(vec![
            FaultRule::new(FaultAction::Drop).window(0, 1),
            FaultRule::new(FaultAction::Duplicate).window(0, u64::MAX),
        ]);
        let mut st = FaultState::install(plan, &names()).unwrap();
        let e = EntryId(0);
        assert_eq!(st.decide(e, 0, 0), Some(FaultAction::Drop));
        assert_eq!(st.decide(e, 0, 0), Some(FaultAction::Duplicate));
        assert_eq!(st.decide(e, 0, 0), Some(FaultAction::Duplicate));
    }
}
