//! The shared workspace: a "publicly available workspace which enables
//! \[participants\] to 'at a glance' monitor the overall state of the
//! system and the work of others" (§2.3) — the integration point of
//! store, access control and awareness.
//!
//! Every operation is access-checked against a Shen–Dewan policy and, if
//! permitted, published to the awareness engine; the workspace also keeps
//! the *public history* that gives the paper's "accountability in the
//! collective process".

use odp_access::matrix::Subject;
use odp_access::rbac::{ObjectPath, RbacPolicy};
use odp_access::rights::Rights;
use odp_awareness::bus::{BusDelivery, CoopEvent, CoopKind, EventBus};
use odp_awareness::events::{ActivityKind, AwarenessEvent};
use odp_concurrency::store::{ObjectStore, StoreError};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

pub use odp_concurrency::store::ObjectId;

/// An awareness weighting function: maps `(observer, event)` to a weight
/// in `[0, 1]` (see [`odp_awareness::events::WeightFn`]).
pub type WorkspaceWeightFn = Box<dyn Fn(NodeId, &AwarenessEvent) -> f64 + Send>;

/// One entry of the public history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Who acted (the workspace maps participants to nodes 1:1).
    pub who: u32,
    /// The artefact path.
    pub artefact: String,
    /// What they did.
    pub kind: ActivityKind,
    /// When.
    pub at: SimTime,
}

/// Errors from workspace operations.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkspaceError {
    /// The policy denied the access (with the policy's explanation).
    Denied(String),
    /// Underlying store failure.
    Store(StoreError),
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkspaceError::Denied(why) => write!(f, "access denied: {why}"),
            WorkspaceError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

impl From<StoreError> for WorkspaceError {
    fn from(e: StoreError) -> Self {
        WorkspaceError::Store(e)
    }
}

/// A shared workspace binding store + policy + awareness.
///
/// Awareness flows through the rights-gated cooperation-event bus: the
/// same [`RbacPolicy`] that adjudicates the *access* also gates who may
/// *observe* it, so an observer without `READ` rights on an artefact
/// never learns the artefact was touched (the bus discloses how much was
/// withheld via [`EventBus::suppressed_by_rights`]).
///
/// # Examples
///
/// ```
/// use cscw_core::workspace::{ObjectId, SharedWorkspace};
/// use odp_access::prelude::*;
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut ws = SharedWorkspace::new();
/// ws.policy_mut().add_rule(RoleId(1), "notes".into(), Rights::ALL, Effect::Allow);
/// ws.policy_mut().assign(Subject(0), RoleId(1));
/// ws.policy_mut().assign(Subject(1), RoleId(1));
/// ws.create_artefact(ObjectId(1), "notes/today", "agenda");
/// ws.register_observer(NodeId(1), 0.0);
/// ws.register_observer(NodeId(2), 0.0); // no rights on "notes"
/// let deliveries = ws.write(NodeId(0), ObjectId(1), "agenda v2", SimTime::ZERO)?;
/// assert_eq!(deliveries.len(), 1, "only the rightful observer saw the edit");
/// assert_eq!(ws.bus().suppressed_by_rights(), 1, "the withholding is disclosed");
/// # Ok::<(), cscw_core::workspace::WorkspaceError>(())
/// ```
pub struct SharedWorkspace {
    store: ObjectStore,
    bus: EventBus,
    paths: std::collections::BTreeMap<ObjectId, ObjectPath>,
    history: Vec<HistoryEntry>,
}

impl Default for SharedWorkspace {
    fn default() -> Self {
        SharedWorkspace::new()
    }
}

impl SharedWorkspace {
    /// Creates an empty workspace (every event weighs 1.0 by default;
    /// install a spatial weighting via
    /// [`SharedWorkspace::set_weight_fn`]). The bus's rights gate is
    /// armed from the start: the workspace policy is default-deny, so
    /// observers only hear about artefacts they could read.
    pub fn new() -> Self {
        let mut bus = EventBus::new();
        bus.set_policy(RbacPolicy::new());
        SharedWorkspace {
            store: ObjectStore::new(),
            bus,
            paths: std::collections::BTreeMap::new(),
            history: Vec::new(),
        }
    }

    /// The access policy (add rules, assign roles). This is the same
    /// policy the awareness gate consults.
    pub fn policy_mut(&mut self) -> &mut RbacPolicy {
        self.bus.policy_mut()
    }

    /// Read access to the policy.
    pub fn policy(&self) -> &RbacPolicy {
        self.bus.policy()
    }

    /// The underlying cooperation-event bus (observer statistics,
    /// rights-suppression disclosure).
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Mutable access to the bus (e.g. to disarm the gate in a trusted
    /// closed-team configuration).
    pub fn bus_mut(&mut self) -> &mut EventBus {
        &mut self.bus
    }

    /// Registers an awareness observer with an interest threshold.
    pub fn register_observer(&mut self, who: NodeId, threshold: f64) {
        self.bus.register(who, threshold);
    }

    /// Installs an awareness weighting function (e.g. from a
    /// [`odp_awareness::spatial::SpatialModel`]).
    pub fn set_weight_fn(&mut self, weight: WorkspaceWeightFn) {
        self.bus.set_awareness_weight_fn(weight);
    }

    /// Creates an artefact at an access-control path.
    pub fn create_artefact(
        &mut self,
        id: ObjectId,
        path: impl Into<ObjectPath>,
        initial: impl Into<String>,
    ) {
        self.store.create(id, initial);
        self.paths.insert(id, path.into());
    }

    /// The stored path of `id`, or `obj/<id>` for an unknown object.
    fn path_of(&self, id: ObjectId) -> Cow<'_, ObjectPath> {
        match self.paths.get(&id) {
            Some(path) => Cow::Borrowed(path),
            None => Cow::Owned(ObjectPath::new(format!("obj/{}", id.0))),
        }
    }

    fn check(&self, who: NodeId, id: ObjectId, needed: Rights) -> Result<(), WorkspaceError> {
        let path = self.path_of(id);
        let decision = self.bus.policy().check(Subject(who.0), &path, needed);
        if decision.allowed {
            Ok(())
        } else {
            Err(WorkspaceError::Denied(self.bus.policy().explain(
                Subject(who.0),
                &path,
                needed,
            )))
        }
    }

    fn publish(
        &mut self,
        who: NodeId,
        id: ObjectId,
        kind: ActivityKind,
        at: SimTime,
    ) -> Vec<BusDelivery> {
        // The history entry and the event each own the artefact: one
        // copy of the stored path, one clone of that.
        let artefact = String::from(self.path_of(id).as_str());
        self.history.push(HistoryEntry {
            who: who.0,
            artefact: artefact.clone(),
            kind,
            at,
        });
        self.bus.publish(CoopEvent::broadcast(
            who,
            artefact,
            at,
            CoopKind::Activity(kind),
        ))
    }

    /// Reads an artefact (requires `READ`); peers with interest *and*
    /// `READ` rights on the artefact get a `View` awareness event.
    ///
    /// # Errors
    ///
    /// Denied accesses and unknown objects fail.
    pub fn read(
        &mut self,
        who: NodeId,
        id: ObjectId,
        at: SimTime,
    ) -> Result<(String, Vec<BusDelivery>), WorkspaceError> {
        self.check(who, id, Rights::READ)?;
        let value = self.store.read(id)?.value.clone();
        let deliveries = self.publish(who, id, ActivityKind::View, at);
        Ok((value, deliveries))
    }

    /// Writes an artefact (requires `WRITE`); peers with `READ` rights
    /// get an `Edit` event.
    ///
    /// # Errors
    ///
    /// Denied accesses and unknown objects fail.
    pub fn write(
        &mut self,
        who: NodeId,
        id: ObjectId,
        value: impl Into<String>,
        at: SimTime,
    ) -> Result<Vec<BusDelivery>, WorkspaceError> {
        self.check(who, id, Rights::WRITE)?;
        self.store.write(id, value)?;
        Ok(self.publish(who, id, ActivityKind::Edit, at))
    }

    /// The public history ("accountability in the collective process").
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// "At a glance": the most recent action per artefact.
    pub fn at_a_glance(&self) -> Vec<&HistoryEntry> {
        let mut latest: std::collections::BTreeMap<&str, &HistoryEntry> =
            std::collections::BTreeMap::new();
        for entry in &self.history {
            latest.insert(entry.artefact.as_str(), entry);
        }
        latest.into_values().collect()
    }

    /// Direct store access (trusted callers, e.g. experiment setup).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }
}

impl fmt::Debug for SharedWorkspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedWorkspace")
            .field("artefacts", &self.paths.len())
            .field("history", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_access::rbac::{Effect, RoleId};

    fn workspace() -> SharedWorkspace {
        let mut ws = SharedWorkspace::new();
        ws.policy_mut().add_rule(
            RoleId(1),
            "docs".into(),
            Rights::READ | Rights::WRITE,
            Effect::Allow,
        );
        ws.policy_mut()
            .add_rule(RoleId(2), "docs".into(), Rights::READ, Effect::Allow);
        ws.policy_mut().assign(Subject(0), RoleId(1));
        ws.policy_mut().assign(Subject(1), RoleId(2));
        ws.create_artefact(ObjectId(1), "docs/plan", "v1");
        ws
    }

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn writes_flow_to_observers_with_rights() {
        let mut ws = workspace();
        ws.register_observer(NodeId(1), 0.0); // reader role on "docs"
        ws.register_observer(NodeId(2), 0.0); // no role at all
        let deliveries = ws.write(NodeId(0), ObjectId(1), "v2", NOW).unwrap();
        // The rightless observer is gated out, and the gate discloses it.
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].observer, NodeId(1));
        assert_eq!(deliveries[0].event.kind.activity(), ActivityKind::Edit);
        assert_eq!(ws.bus().suppressed_by_rights(), 1);
        assert_eq!(ws.bus().stats(NodeId(2)).unwrap().suppressed_by_rights, 1);
    }

    #[test]
    fn disarming_the_gate_restores_open_fanout() {
        let mut ws = workspace();
        ws.register_observer(NodeId(1), 0.0);
        ws.register_observer(NodeId(2), 0.0);
        ws.bus_mut().set_rights_gate(false);
        let deliveries = ws.write(NodeId(0), ObjectId(1), "v2", NOW).unwrap();
        assert_eq!(deliveries.len(), 2, "trusted closed team: everyone hears");
    }

    #[test]
    fn policy_denies_the_reader_role_writing() {
        let mut ws = workspace();
        let err = ws.write(NodeId(1), ObjectId(1), "nope", NOW).unwrap_err();
        assert!(matches!(err, WorkspaceError::Denied(_)));
        let (value, _) = ws.read(NodeId(1), ObjectId(1), NOW).unwrap();
        assert_eq!(value, "v1");
    }

    #[test]
    fn unknown_subjects_are_denied_by_default() {
        let mut ws = workspace();
        assert!(ws.read(NodeId(9), ObjectId(1), NOW).is_err());
    }

    #[test]
    fn history_records_everything_in_order() {
        let mut ws = workspace();
        ws.write(NodeId(0), ObjectId(1), "v2", NOW).unwrap();
        ws.read(NodeId(1), ObjectId(1), SimTime::from_secs(1))
            .unwrap();
        let h = ws.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].kind, ActivityKind::Edit);
        assert_eq!(h[1].kind, ActivityKind::View);
        assert_eq!(h[1].who, 1);
    }

    #[test]
    fn at_a_glance_shows_latest_per_artefact() {
        let mut ws = workspace();
        ws.create_artefact(ObjectId(2), "docs/notes", "n");
        ws.write(NodeId(0), ObjectId(1), "a", NOW).unwrap();
        ws.write(NodeId(0), ObjectId(2), "b", SimTime::from_secs(1))
            .unwrap();
        ws.write(NodeId(0), ObjectId(1), "c", SimTime::from_secs(2))
            .unwrap();
        let glance = ws.at_a_glance();
        assert_eq!(glance.len(), 2);
        let plan = glance.iter().find(|e| e.artefact == "docs/plan").unwrap();
        assert_eq!(plan.at, SimTime::from_secs(2));
    }

    #[test]
    fn denied_accesses_leave_no_history_or_awareness() {
        let mut ws = workspace();
        ws.register_observer(NodeId(0), 0.0);
        let _ = ws.write(NodeId(1), ObjectId(1), "nope", NOW);
        assert!(ws.history().is_empty());
    }
}
