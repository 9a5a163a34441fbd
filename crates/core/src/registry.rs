//! The dispatcher registry: one place to map string keys to dispatcher
//! constructors.
//!
//! Before this module, dispatcher construction was scattered: the replay CLI
//! kept a hand-maintained `DISPATCHER_KEYS` const next to a string match,
//! and the bench drivers copy-pasted
//! `|_| Box::new(SardDispatcher::new(config))` closures.  Now
//! [`DispatcherKind`] is the closed set of known keys and
//! [`DispatcherBuilder`] maps the kinds a crate can actually construct to
//! their constructors.
//!
//! The crate layering makes registration two-step: `core` only knows its own
//! dispatchers (SARD, the exact-assignment dispatcher), while the baselines
//! live in `structride-baselines`, which *depends on* this crate.  So
//! [`DispatcherBuilder::core`] registers the core dispatchers, and
//! `structride_baselines::standard_registry()` extends it with every
//! baseline — that function is what the replay CLI and bench drivers use.

use crate::assign::AssignDispatcher;
use crate::config::StructRideConfig;
use crate::dispatcher::Dispatcher;
use crate::sard::SardDispatcher;

/// Every dispatcher key the workspace knows, in canonical (display) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatcherKind {
    /// SARD, the paper's structure-aware dispatcher.
    Sard,
    /// The exact global-assignment dispatcher ([`AssignDispatcher`]).
    Assign,
    /// RTV with the exact trip-group choice.
    Rtv,
    /// The pruneGDP online baseline.
    PruneGdp,
    /// The GAS baseline.
    Gas,
    /// DARM demand-aware repositioning.
    Darm,
    /// TicketAssign+, the ticket-based parallel online baseline.
    Ticket,
}

impl DispatcherKind {
    /// All kinds, in canonical order.
    pub const fn all() -> &'static [DispatcherKind] {
        &[
            DispatcherKind::Sard,
            DispatcherKind::Assign,
            DispatcherKind::Rtv,
            DispatcherKind::PruneGdp,
            DispatcherKind::Gas,
            DispatcherKind::Darm,
            DispatcherKind::Ticket,
        ]
    }

    /// The canonical CLI key.
    pub const fn key(self) -> &'static str {
        match self {
            DispatcherKind::Sard => "sard",
            DispatcherKind::Assign => "assign",
            DispatcherKind::Rtv => "rtv",
            DispatcherKind::PruneGdp => "prunegdp",
            DispatcherKind::Gas => "gas",
            DispatcherKind::Darm => "darm",
            DispatcherKind::Ticket => "ticket",
        }
    }

    /// Resolves a CLI key (accepting the legacy `gdp` alias for pruneGDP).
    pub fn from_key(key: &str) -> Option<Self> {
        match key {
            "sard" => Some(DispatcherKind::Sard),
            "assign" => Some(DispatcherKind::Assign),
            "rtv" => Some(DispatcherKind::Rtv),
            "prunegdp" | "gdp" => Some(DispatcherKind::PruneGdp),
            "gas" => Some(DispatcherKind::Gas),
            "darm" => Some(DispatcherKind::Darm),
            "ticket" => Some(DispatcherKind::Ticket),
            _ => None,
        }
    }

    /// Position in [`DispatcherKind::all`], used as the registry slot.
    const fn slot(self) -> usize {
        self as usize
    }
}

/// A dispatcher constructor: every registered entry is a plain `fn`, so the
/// builder is `Copy`-cheap to construct on demand and trivially `Send`.
pub type BuildFn = fn(&StructRideConfig) -> Box<dyn Dispatcher + Send>;

/// Maps [`DispatcherKind`]s to constructors.
///
/// Start from [`DispatcherBuilder::new`] (empty) or
/// [`DispatcherBuilder::core`] (core dispatchers registered) and chain
/// [`DispatcherBuilder::register`]; downstream crates extend the set with
/// the dispatchers they provide (see `structride_baselines::standard_registry`).
#[derive(Debug, Clone, Default)]
pub struct DispatcherBuilder {
    entries: [Option<BuildFn>; DispatcherKind::all().len()],
}

impl DispatcherBuilder {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with the dispatchers this crate provides: SARD and the
    /// exact-assignment dispatcher.
    pub fn core() -> Self {
        Self::new()
            .register(DispatcherKind::Sard, |config| {
                Box::new(SardDispatcher::new(*config))
            })
            .register(
                DispatcherKind::Assign,
                |_| Box::new(AssignDispatcher::new()),
            )
    }

    /// Registers (or replaces) the constructor for `kind`.
    pub fn register(mut self, kind: DispatcherKind, build: BuildFn) -> Self {
        self.entries[kind.slot()] = Some(build);
        self
    }

    /// Resolves a CLI key to a kind **registered in this builder**.
    pub fn from_key(&self, key: &str) -> Option<DispatcherKind> {
        DispatcherKind::from_key(key).filter(|k| self.entries[k.slot()].is_some())
    }

    /// Builds the dispatcher registered for `kind`.
    pub fn build(
        &self,
        kind: DispatcherKind,
        config: &StructRideConfig,
    ) -> Option<Box<dyn Dispatcher + Send>> {
        self.entries[kind.slot()].map(|build| build(config))
    }

    /// Builds the dispatcher registered under a CLI key.
    pub fn build_by_key(
        &self,
        key: &str,
        config: &StructRideConfig,
    ) -> Option<Box<dyn Dispatcher + Send>> {
        self.build(self.from_key(key)?, config)
    }

    /// The registered kinds, in canonical order.
    pub fn all(&self) -> Vec<DispatcherKind> {
        DispatcherKind::all()
            .iter()
            .copied()
            .filter(|k| self.entries[k.slot()].is_some())
            .collect()
    }

    /// The registered CLI keys, in canonical order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.all().into_iter().map(DispatcherKind::key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_roundtrip_through_from_key() {
        for &kind in DispatcherKind::all() {
            assert_eq!(DispatcherKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(
            DispatcherKind::from_key("gdp"),
            Some(DispatcherKind::PruneGdp),
            "legacy alias"
        );
        assert_eq!(DispatcherKind::from_key("nope"), None);
    }

    #[test]
    fn core_registry_builds_core_dispatchers_only() {
        let registry = DispatcherBuilder::core();
        let config = StructRideConfig::default();
        assert_eq!(registry.keys(), vec!["sard", "assign"]);
        let sard = registry.build_by_key("sard", &config).expect("registered");
        assert_eq!(sard.name(), "SARD");
        let assign = registry
            .build_by_key("assign", &config)
            .expect("registered");
        assert_eq!(assign.name(), "ASSIGN");
        assert!(registry.build_by_key("rtv", &config).is_none());
        assert_eq!(registry.from_key("rtv"), None, "known but unregistered");
    }

    #[test]
    fn register_extends_and_replaces() {
        let registry = DispatcherBuilder::new().register(DispatcherKind::Sard, |config| {
            Box::new(SardDispatcher::new(*config))
        });
        assert_eq!(registry.keys(), vec!["sard"]);
        assert_eq!(registry.all(), vec![DispatcherKind::Sard]);
        // Replacing an entry keeps exactly one registration.
        let registry = registry.register(DispatcherKind::Sard, |config| {
            Box::new(SardDispatcher::new(*config))
        });
        assert_eq!(registry.keys(), vec!["sard"]);
    }
}
