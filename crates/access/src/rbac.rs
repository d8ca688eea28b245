//! Role-based, dynamic, fine-grained access control (Shen & Dewan,
//! "Access Control for Collaborative Environments", CSCW'92).
//!
//! The paper's requirements (§4.2.1), all realised here:
//!
//! - policies are based on **roles**, not individual identity;
//! - roles are **dynamic**: assignments change during a collaboration
//!   at the cost of one subject's role closure, without re-administering
//!   per-object lists;
//! - control is **fine-grained**: objects are hierarchical paths
//!   (`"report/sec2/para3"`, down to individual lines) and rules attach
//!   at any level, inherited downward;
//! - rules may be negative (**deny**), with conflict resolution: the more
//!   specific path wins, and at equal specificity deny beats allow;
//! - rights are **visible and easy to understand**: `explain` returns the
//!   rule that decided an access.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::matrix::Subject;
use crate::rights::Rights;

/// Names a role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RoleId(pub u32);

impl fmt::Display for RoleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "role{}", self.0)
    }
}

/// A hierarchical object path, e.g. `report/sec2/para3/line14`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectPath(String);

impl ObjectPath {
    /// Creates a path, trimming redundant slashes. An already normalised
    /// input (no leading or trailing `/`, no `//`) is kept as it is.
    pub fn new(path: impl Into<String>) -> Self {
        let raw: String = path.into();
        if !raw.starts_with('/') && !raw.ends_with('/') && !raw.contains("//") {
            return ObjectPath(raw);
        }
        let cleaned: Vec<&str> = raw.split('/').filter(|s| !s.is_empty()).collect();
        ObjectPath(cleaned.join("/"))
    }

    /// The path as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of components.
    pub fn depth(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.0.split('/').count()
        }
    }

    /// True if `self` is `other` or an ancestor of it.
    pub fn covers(&self, other: &ObjectPath) -> bool {
        let (mine, theirs) = (self.0.as_bytes(), other.0.as_bytes());
        // The root covers everything; otherwise `other` must be `self`
        // or continue it with a `/`.
        mine.is_empty()
            || (theirs.starts_with(mine) && theirs.get(mine.len()).is_none_or(|&b| b == b'/'))
    }

    /// The parent path (`None` at the root).
    pub fn parent(&self) -> Option<ObjectPath> {
        let idx = self.0.rfind('/')?;
        Some(ObjectPath(self.0[..idx].to_owned()))
    }
}

impl fmt::Display for ObjectPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectPath {
    fn from(s: &str) -> Self {
        ObjectPath::new(s)
    }
}

/// Allow or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effect {
    /// Grants the rights.
    Allow,
    /// Forbids the rights (beats Allow at equal specificity).
    Deny,
}

/// One policy rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// The role it applies to.
    pub role: RoleId,
    /// The object subtree it covers.
    pub path: ObjectPath,
    /// The rights concerned.
    pub rights: Rights,
    /// Allow or deny.
    pub effect: Effect,
}

/// The decision for one access check, with its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision<'a> {
    /// Whether access is granted.
    pub allowed: bool,
    /// The rule that decided it (None = default deny), borrowed from
    /// the policy.
    pub because: Option<&'a Rule>,
}

/// The effective role set of a subject with no assignments.
static NO_ROLES: BTreeSet<RoleId> = BTreeSet::new();

/// The Shen–Dewan policy engine.
///
/// # Examples
///
/// ```
/// use odp_access::matrix::Subject;
/// use odp_access::rbac::{Effect, ObjectPath, RbacPolicy, RoleId};
/// use odp_access::rights::Rights;
///
/// let mut p = RbacPolicy::new();
/// let author = RoleId(1);
/// p.add_rule(author, "report".into(), Rights::READ | Rights::WRITE, Effect::Allow);
/// p.add_rule(author, "report/appendix".into(), Rights::WRITE, Effect::Deny);
/// p.assign(Subject(5), author);
/// assert!(p.check(Subject(5), &"report/sec1".into(), Rights::WRITE).allowed);
/// assert!(!p.check(Subject(5), &"report/appendix/a1".into(), Rights::WRITE).allowed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RbacPolicy {
    rules: Vec<Rule>,
    assignments: BTreeMap<Subject, BTreeSet<RoleId>>,
    /// role -> roles it inherits from (junior roles).
    inherits: BTreeMap<RoleId, BTreeSet<RoleId>>,
    /// subject -> effective roles, kept up to date by every mutator of
    /// `assignments` and `inherits` so `check` only borrows.
    effective: BTreeMap<Subject, BTreeSet<RoleId>>,
    role_changes: u64,
}

impl RbacPolicy {
    /// Creates an empty (default-deny) policy.
    pub fn new() -> Self {
        RbacPolicy::default()
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, role: RoleId, path: ObjectPath, rights: Rights, effect: Effect) {
        self.rules.push(Rule {
            role,
            path,
            rights,
            effect,
        });
    }

    /// Declares that `senior` inherits all permissions of `junior`.
    ///
    /// Recomputes the effective role set of every assigned subject.
    pub fn add_inheritance(&mut self, senior: RoleId, junior: RoleId) {
        self.inherits.entry(senior).or_default().insert(junior);
        self.effective = self
            .assignments
            .keys()
            .map(|&subject| (subject, self.closure(subject)))
            .collect();
    }

    /// Assigns a role to a subject — a *dynamic* change, the operation
    /// static schemes cannot express without re-administration. It costs
    /// one recomputation of this subject's effective role set (its
    /// roles' inheritance closure), so every later check only borrows it.
    pub fn assign(&mut self, subject: Subject, role: RoleId) {
        self.assignments.entry(subject).or_default().insert(role);
        self.refresh(subject);
        self.role_changes += 1;
    }

    /// Removes a role from a subject (equally dynamic, same cost as
    /// [`RbacPolicy::assign`]).
    pub fn unassign(&mut self, subject: Subject, role: RoleId) {
        if let Some(roles) = self.assignments.get_mut(&subject) {
            roles.remove(&role);
            self.refresh(subject);
        }
        self.role_changes += 1;
    }

    /// The subject's direct roles.
    pub fn roles_of(&self, subject: Subject) -> Vec<RoleId> {
        self.assignments
            .get(&subject)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The subject's effective roles (direct plus transitively inherited
    /// junior roles).
    pub fn effective_roles(&self, subject: Subject) -> BTreeSet<RoleId> {
        self.effective.get(&subject).cloned().unwrap_or_default()
    }

    /// Recomputes one subject's effective role set.
    fn refresh(&mut self, subject: Subject) {
        let roles = self.closure(subject);
        self.effective.insert(subject, roles);
    }

    /// Direct roles plus transitively inherited junior roles.
    fn closure(&self, subject: Subject) -> BTreeSet<RoleId> {
        let mut out = BTreeSet::new();
        // Juniors still to visit: it allocates only once a visited role
        // inherits from another.
        let mut stack: Vec<RoleId> = Vec::new();
        for &direct in self.assignments.get(&subject).into_iter().flatten() {
            let mut next = Some(direct);
            while let Some(role) = next {
                if out.insert(role) {
                    if let Some(juniors) = self.inherits.get(&role) {
                        stack.extend(juniors.iter().copied());
                    }
                }
                next = stack.pop();
            }
        }
        out
    }

    /// Number of dynamic role changes performed (for E5 accounting).
    pub fn role_changes(&self) -> u64 {
        self.role_changes
    }

    /// Checks whether `subject` may exercise `needed` on `path`, and
    /// explains why. Conflict resolution: deepest matching path wins;
    /// deny beats allow at equal depth; default deny. Allocates nothing.
    pub fn check(&self, subject: Subject, path: &ObjectPath, needed: Rights) -> Decision<'_> {
        if needed.is_empty() {
            return Decision {
                allowed: true,
                because: None,
            };
        }
        let roles = self.effective.get(&subject).unwrap_or(&NO_ROLES);
        let mut best: Option<(&Rule, usize)> = None;
        for rule in &self.rules {
            if !roles.contains(&rule.role) || !rule.path.covers(path) {
                continue;
            }
            if !rule.rights.intersection(needed).is_empty() || rule.rights.contains(needed) {
                // Relevant if it says anything about any needed right.
                let depth = rule.path.depth();
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
            Some((rule, _)) => Decision {
                allowed: rule.effect == Effect::Allow && rule.rights.contains(needed),
                because: Some(rule),
            },
            None => Decision {
                allowed: false,
                because: None,
            },
        }
    }

    /// Human-readable explanation of a check — the paper's demand that
    /// "access rights are both visible and easy to understand".
    pub fn explain(&self, subject: Subject, path: &ObjectPath, needed: Rights) -> String {
        let d = self.check(subject, path, needed);
        match (d.because, d.allowed) {
            (Some(rule), true) => format!(
                "{subject} may {needed} on {path}: {} grants {} at '{}'",
                rule.role, rule.rights, rule.path
            ),
            (Some(rule), false) => format!(
                "{subject} may NOT {needed} on {path}: {} {} {} at '{}'",
                rule.role,
                match rule.effect {
                    Effect::Deny => "denies",
                    Effect::Allow => "only grants",
                },
                rule.rights,
                rule.path
            ),
            (None, _) => {
                format!("{subject} may NOT {needed} on {path}: no applicable rule (default deny)")
            }
        }
    }

    /// Total rules in the policy.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RbacPolicy {
        let mut p = RbacPolicy::new();
        // role 1 = author, role 2 = reviewer, role 3 = editor-in-chief.
        p.add_rule(
            RoleId(1),
            "report".into(),
            Rights::READ | Rights::WRITE,
            Effect::Allow,
        );
        p.add_rule(
            RoleId(2),
            "report".into(),
            Rights::READ | Rights::ANNOTATE,
            Effect::Allow,
        );
        p.add_rule(
            RoleId(1),
            "report/reviews".into(),
            Rights::WRITE,
            Effect::Deny,
        );
        p.add_rule(RoleId(3), "report".into(), Rights::ALL, Effect::Allow);
        p.add_inheritance(RoleId(3), RoleId(1));
        p
    }

    #[test]
    fn roles_grant_rights() {
        let mut p = policy();
        p.assign(Subject(1), RoleId(1));
        assert!(
            p.check(Subject(1), &"report/sec1/para2".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            !p.check(Subject(1), &"report/sec1".into(), Rights::DELETE)
                .allowed
        );
        assert!(
            !p.check(Subject(2), &"report/sec1".into(), Rights::READ)
                .allowed,
            "no role, default deny"
        );
    }

    #[test]
    fn deeper_deny_beats_shallower_allow() {
        let mut p = policy();
        p.assign(Subject(1), RoleId(1));
        assert!(
            p.check(Subject(1), &"report/sec1".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            !p.check(Subject(1), &"report/reviews/r1".into(), Rights::WRITE)
                .allowed
        );
        // Reads in the denied subtree are still fine (deny only names WRITE).
        assert!(
            p.check(Subject(1), &"report/reviews/r1".into(), Rights::READ)
                .allowed
        );
    }

    #[test]
    fn deny_beats_allow_at_equal_depth() {
        let mut p = RbacPolicy::new();
        p.add_rule(RoleId(1), "doc".into(), Rights::WRITE, Effect::Allow);
        p.add_rule(RoleId(2), "doc".into(), Rights::WRITE, Effect::Deny);
        p.assign(Subject(1), RoleId(1));
        p.assign(Subject(1), RoleId(2));
        assert!(!p.check(Subject(1), &"doc/x".into(), Rights::WRITE).allowed);
    }

    #[test]
    fn dynamic_role_change_is_immediate() {
        let mut p = policy();
        let path: ObjectPath = "report/sec1".into();
        assert!(!p.check(Subject(9), &path, Rights::WRITE).allowed);
        p.assign(Subject(9), RoleId(1));
        assert!(p.check(Subject(9), &path, Rights::WRITE).allowed);
        p.unassign(Subject(9), RoleId(1));
        assert!(!p.check(Subject(9), &path, Rights::WRITE).allowed);
        assert_eq!(p.role_changes(), 2);
    }

    #[test]
    fn inheritance_carries_junior_permissions() {
        let mut p = policy();
        p.assign(Subject(3), RoleId(3)); // editor-in-chief inherits author
        assert!(p.effective_roles(Subject(3)).contains(&RoleId(1)));
        // But the author's deny at report/reviews is overridden by the
        // chief's own ALL at 'report'? No: deeper path wins regardless of
        // which role it came from.
        assert!(
            !p.check(Subject(3), &"report/reviews/r1".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            p.check(Subject(3), &"report/sec1".into(), Rights::DELETE)
                .allowed
        );
    }

    #[test]
    fn fine_grained_line_level_rules() {
        let mut p = RbacPolicy::new();
        p.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
        p.add_rule(
            RoleId(1),
            "doc/para3/line14".into(),
            Rights::WRITE,
            Effect::Allow,
        );
        p.assign(Subject(1), RoleId(1));
        assert!(
            p.check(Subject(1), &"doc/para3/line14".into(), Rights::WRITE)
                .allowed
        );
        assert!(
            !p.check(Subject(1), &"doc/para3/line15".into(), Rights::WRITE)
                .allowed
        );
    }

    #[test]
    fn explain_names_the_deciding_rule() {
        let mut p = policy();
        p.assign(Subject(1), RoleId(1));
        let why = p.explain(Subject(1), &"report/reviews/r1".into(), Rights::WRITE);
        assert!(why.contains("NOT"), "{why}");
        assert!(why.contains("report/reviews"), "{why}");
        let why_ok = p.explain(Subject(1), &"report/sec1".into(), Rights::WRITE);
        assert!(why_ok.contains("grants"), "{why_ok}");
        let why_none = p.explain(Subject(42), &"report".into(), Rights::READ);
        assert!(why_none.contains("default deny"), "{why_none}");
    }

    #[test]
    fn object_path_normalisation_and_covers() {
        let p = ObjectPath::new("/a//b/c/");
        assert_eq!(p.as_str(), "a/b/c");
        assert_eq!(p.depth(), 3);
        assert!(ObjectPath::new("a/b").covers(&p));
        assert!(!ObjectPath::new("a/bc").covers(&p));
        assert!(ObjectPath::new("").covers(&p), "root covers all");
        assert_eq!(p.parent().unwrap().as_str(), "a/b");
        assert_eq!(ObjectPath::new("a").parent(), None);
    }

    #[test]
    fn empty_rights_check_is_vacuously_true() {
        let p = RbacPolicy::new();
        assert!(p.check(Subject(0), &"x".into(), Rights::NONE).allowed);
    }
}
