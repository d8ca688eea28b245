//! Differential test of the rights check against a reference copy.
//!
//! The oracle below is the straightforward implementation the policy
//! engine started from: it re-parses every path, rebuilds the subject's
//! role closure on each check and clones the deciding rule. The engine
//! keeps role sets up to date and borrows everything instead; on random
//! policies (allow and deny rules at mixed depths, cyclic inheritance,
//! interleaved assign/unassign, messy paths) both must agree on
//! `allowed`, `because`, `explain` and `effective_roles`.

use std::collections::{BTreeMap, BTreeSet};

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use proptest::prelude::*;

/// The reference path normalisation: split, drop empty parts, rejoin.
fn oracle_path(raw: &str) -> String {
    let cleaned: Vec<&str> = raw.split('/').filter(|s| !s.is_empty()).collect();
    cleaned.join("/")
}

fn oracle_depth(path: &str) -> usize {
    if path.is_empty() {
        0
    } else {
        path.split('/').count()
    }
}

fn oracle_covers(rule: &str, path: &str) -> bool {
    if rule.is_empty() {
        return true;
    }
    path == rule || path.starts_with(&format!("{rule}/"))
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct OracleRule {
    role: RoleId,
    path: String,
    rights: Rights,
    effect: Effect,
}

/// The reference policy engine.
#[derive(Default)]
struct Oracle {
    rules: Vec<OracleRule>,
    assignments: BTreeMap<Subject, BTreeSet<RoleId>>,
    inherits: BTreeMap<RoleId, BTreeSet<RoleId>>,
}

impl Oracle {
    fn effective_roles(&self, subject: Subject) -> BTreeSet<RoleId> {
        let mut out = BTreeSet::new();
        let mut stack: Vec<RoleId> = self
            .assignments
            .get(&subject)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default();
        while let Some(role) = stack.pop() {
            if out.insert(role) {
                if let Some(juniors) = self.inherits.get(&role) {
                    stack.extend(juniors.iter().copied());
                }
            }
        }
        out
    }

    fn check(&self, subject: Subject, raw: &str, needed: Rights) -> (bool, Option<OracleRule>) {
        if needed.is_empty() {
            return (true, None);
        }
        let path = oracle_path(raw);
        let roles = self.effective_roles(subject);
        let mut best: Option<(&OracleRule, usize)> = None;
        for rule in &self.rules {
            if !roles.contains(&rule.role) || !oracle_covers(&rule.path, &path) {
                continue;
            }
            if !rule.rights.intersection(needed).is_empty() || rule.rights.contains(needed) {
                let depth = oracle_depth(&rule.path);
                let wins = match best {
                    None => true,
                    Some((cur, cur_depth)) => {
                        depth > cur_depth
                            || (depth == cur_depth
                                && rule.effect == Effect::Deny
                                && cur.effect == Effect::Allow)
                    }
                };
                if wins {
                    best = Some((rule, depth));
                }
            }
        }
        match best {
            Some((rule, _)) => (
                rule.effect == Effect::Allow && rule.rights.contains(needed),
                Some(rule.clone()),
            ),
            None => (false, None),
        }
    }

    fn explain(&self, subject: Subject, raw: &str, needed: Rights) -> String {
        let path = oracle_path(raw);
        match self.check(subject, raw, needed) {
            (true, Some(rule)) => format!(
                "{subject} may {needed} on {path}: {} grants {} at '{}'",
                rule.role, rule.rights, rule.path
            ),
            (false, Some(rule)) => format!(
                "{subject} may NOT {needed} on {path}: {} {} {} at '{}'",
                rule.role,
                match rule.effect {
                    Effect::Deny => "denies",
                    Effect::Allow => "only grants",
                },
                rule.rights,
                rule.path
            ),
            (_, None) => {
                format!("{subject} may NOT {needed} on {path}: no applicable rule (default deny)")
            }
        }
    }
}

const SUBJECTS: u32 = 5;
const ROLES: u32 = 6;

/// Paths with leading, trailing and doubled slashes, sibling prefixes
/// (`a/bc` against `a/b`) and the empty root.
fn arb_path() -> impl Strategy<Value = String> {
    (0u8..2, prop::collection::vec(0usize..5, 0..5), 0u8..2).prop_map(|(lead, parts, trail)| {
        const PARTS: [&str; 5] = ["a", "b", "bc", "c", ""];
        let mut path: String = parts
            .iter()
            .map(|&i| PARTS[i])
            .collect::<Vec<_>>()
            .join("/");
        if lead == 1 {
            path.insert(0, '/');
        }
        if trail == 1 {
            path.push('/');
        }
        path
    })
}

fn arb_rights() -> impl Strategy<Value = Rights> {
    (0u8..32).prop_map(|bits| {
        [
            Rights::READ,
            Rights::WRITE,
            Rights::ANNOTATE,
            Rights::DELETE,
            Rights::GRANT,
        ]
        .iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0)
        .fold(Rights::NONE, |acc, (_, &r)| acc | r)
    })
}

#[derive(Debug, Clone)]
enum Op {
    Rule(RoleId, String, Rights, Effect),
    Inherit(RoleId, RoleId),
    Assign(Subject, RoleId),
    Unassign(Subject, RoleId),
    Check(Subject, String, Rights),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0..SUBJECTS,
        0..ROLES,
        0..ROLES,
        arb_path(),
        arb_rights(),
    )
        .prop_map(|(kind, s, r1, r2, path, rights)| match kind {
            0 | 1 => Op::Rule(
                RoleId(r1),
                path,
                rights,
                if r2 % 2 == 0 {
                    Effect::Allow
                } else {
                    Effect::Deny
                },
            ),
            2 => Op::Inherit(RoleId(r1), RoleId(r2)),
            3 | 4 => Op::Assign(Subject(s), RoleId(r1)),
            5 => Op::Unassign(Subject(s), RoleId(r1)),
            _ => Op::Check(Subject(s), path, rights),
        })
}

fn assert_agree(policy: &RbacPolicy, oracle: &Oracle, subject: Subject, raw: &str, needed: Rights) {
    let path = ObjectPath::new(raw);
    assert_eq!(path.as_str(), oracle_path(raw), "normalising {raw:?}");
    let got = policy.check(subject, &path, needed);
    let (allowed, because) = oracle.check(subject, raw, needed);
    assert_eq!(
        got.allowed, allowed,
        "allowed: {subject} {needed} on {raw:?}"
    );
    let got_because = got.because.map(|r| OracleRule {
        role: r.role,
        path: r.path.as_str().to_owned(),
        rights: r.rights,
        effect: r.effect,
    });
    assert_eq!(
        got_because, because,
        "because: {subject} {needed} on {raw:?}"
    );
    assert_eq!(
        policy.explain(subject, &path, needed),
        oracle.explain(subject, raw, needed)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every check, explanation and effective role set agrees with the
    /// reference engine after every step of a random policy history.
    #[test]
    fn check_matches_the_reference_engine(
        ops in prop::collection::vec(arb_op(), 0..60),
        probes in prop::collection::vec((arb_path(), arb_rights()), 1..8),
    ) {
        let mut policy = RbacPolicy::new();
        let mut oracle = Oracle::default();
        for op in ops {
            match op {
                Op::Rule(role, path, rights, effect) => {
                    policy.add_rule(role, ObjectPath::new(path.as_str()), rights, effect);
                    oracle.rules.push(OracleRule { role, path: oracle_path(&path), rights, effect });
                }
                Op::Inherit(senior, junior) => {
                    policy.add_inheritance(senior, junior);
                    oracle.inherits.entry(senior).or_default().insert(junior);
                }
                Op::Assign(subject, role) => {
                    policy.assign(subject, role);
                    oracle.assignments.entry(subject).or_default().insert(role);
                }
                Op::Unassign(subject, role) => {
                    policy.unassign(subject, role);
                    if let Some(roles) = oracle.assignments.get_mut(&subject) {
                        roles.remove(&role);
                    }
                }
                Op::Check(subject, path, needed) => {
                    assert_agree(&policy, &oracle, subject, &path, needed);
                }
            }
            for s in 0..SUBJECTS {
                prop_assert_eq!(
                    policy.effective_roles(Subject(s)),
                    oracle.effective_roles(Subject(s))
                );
            }
        }
        for s in 0..SUBJECTS {
            for (path, needed) in &probes {
                assert_agree(&policy, &oracle, Subject(s), path, *needed);
            }
        }
    }
}

/// The hand-picked corner cases, each checked once against the oracle.
#[test]
fn corner_paths_match_the_reference_engine() {
    let mut policy = RbacPolicy::new();
    let mut oracle = Oracle::default();
    let rules: [(u32, &str, Rights, Effect); 5] = [
        (0, "", Rights::READ, Effect::Allow),
        (1, "a/b", Rights::READ | Rights::WRITE, Effect::Allow),
        (1, "/a//b/", Rights::WRITE, Effect::Deny),
        (2, "a/bc", Rights::ALL, Effect::Allow),
        (3, "a", Rights::WRITE, Effect::Deny),
    ];
    for (role, path, rights, effect) in rules {
        policy.add_rule(RoleId(role), ObjectPath::new(path), rights, effect);
        oracle.rules.push(OracleRule {
            role: RoleId(role),
            path: oracle_path(path),
            rights,
            effect,
        });
    }
    // A cycle 1 -> 2 -> 3 -> 1, plus a self-loop on 0.
    for (senior, junior) in [(1, 2), (2, 3), (3, 1), (0, 0)] {
        policy.add_inheritance(RoleId(senior), RoleId(junior));
        oracle
            .inherits
            .entry(RoleId(senior))
            .or_default()
            .insert(RoleId(junior));
    }
    for (subject, role) in [(0, 0), (1, 1), (2, 2), (3, 3)] {
        policy.assign(Subject(subject), RoleId(role));
        oracle
            .assignments
            .entry(Subject(subject))
            .or_default()
            .insert(RoleId(role));
    }
    policy.unassign(Subject(3), RoleId(3));
    oracle
        .assignments
        .get_mut(&Subject(3))
        .expect("assigned above")
        .remove(&RoleId(3));
    let paths = [
        "", "/", "//", "a", "a/b", "/a//b/", "a/bc", "a/bc/d", "a/b/c", "ab", "b",
    ];
    for s in 0..5 {
        assert_eq!(
            policy.effective_roles(Subject(s)),
            oracle.effective_roles(Subject(s))
        );
        for path in paths {
            for needed in [Rights::NONE, Rights::READ, Rights::WRITE, Rights::ALL] {
                assert_agree(&policy, &oracle, Subject(s), path, needed);
            }
        }
    }
}
