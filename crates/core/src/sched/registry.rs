//! Pluggable scheduler construction: factories and the registry the
//! driver resolves policies from.
//!
//! The driver never names a concrete scheduler type; it asks a
//! [`SchedulerRegistry`] to build one from the configuration's registry
//! key ([`SchedulerKind::key`]). Custom policies — ablations, paper
//! extensions — implement [`SchedulerFactory`], register under a fresh
//! name, and immediately work with
//! [`Campaign::run_on`](crate::campaign::Campaign::run_on) matrices,
//! without touching the driver.
//!
//! ```
//! use strex::config::SimConfig;
//! use strex::sched::registry::{self, SchedulerFactory, SchedulerRegistry};
//! use strex::sched::{BaselineSched, Scheduler};
//!
//! // A custom policy: the baseline under a new name.
//! struct MyPolicy;
//! impl SchedulerFactory for MyPolicy {
//!     fn name(&self) -> &'static str { "my-policy" }
//!     fn create(&self, _config: &SimConfig) -> Box<dyn Scheduler> {
//!         Box::new(BaselineSched::new())
//!     }
//! }
//!
//! let mut reg = SchedulerRegistry::with_defaults();
//! reg.register(Box::new(MyPolicy));
//! assert!(reg.get("my-policy").is_some());
//! assert!(registry::global().get("strex").is_some());
//! ```

use std::sync::OnceLock;

use strex_oltp::workload::Workload;

use crate::config::{SchedulerKind, SimConfig};
use crate::driver::{self, SimScratch};
use crate::report::Report;
use crate::sched::{BaselineSched, HybridSched, Scheduler, SliccSched, StrexSched};

/// Builds scheduler instances from a configuration.
///
/// `Send + Sync` because campaign workers construct schedulers
/// concurrently from a shared registry.
pub trait SchedulerFactory: Send + Sync {
    /// The registry key (and lookup name) of this policy.
    fn name(&self) -> &'static str;

    /// Creates a fresh scheduler for one simulation run.
    fn create(&self, config: &SimConfig) -> Box<dyn Scheduler>;

    /// Runs one simulation through the driver loop instantiated for this
    /// factory's concrete scheduler type ([`driver::run_with`]), or `None`
    /// to let the caller fall back to the `dyn Scheduler` loop via
    /// [`create`](SchedulerFactory::create).
    ///
    /// The default returns `None`, which is always correct — both loops
    /// give bit-identical results — so custom policies only override this
    /// when they want the per-event virtual calls compiled out. Every
    /// built-in policy overrides it; [`driver::run`] and campaign cells
    /// reach the typed loop through here.
    fn run_typed(
        &self,
        workload: &Workload,
        config: &SimConfig,
        scratch: &mut SimScratch,
    ) -> Option<Report> {
        let _ = (workload, config, scratch);
        None
    }

    /// The built-in policy this factory runs, or `None`. Only the
    /// registry's own entries ([`SchedulerRegistry::with_defaults`])
    /// answer, so a custom factory, or one that wraps a built-in under
    /// its name, is never taken for the policy itself. A campaign gives a
    /// hybrid cell its delegate's report only when both cells run
    /// built-in policies (see [`Campaign::run_on`](crate::campaign::Campaign::run_on)).
    fn built_in(&self) -> Option<SchedulerKind> {
        None
    }
}

/// A name-keyed collection of [`SchedulerFactory`]s.
pub struct SchedulerRegistry {
    entries: Vec<Box<dyn SchedulerFactory>>,
}

impl SchedulerRegistry {
    /// A registry with no entries.
    pub fn empty() -> Self {
        SchedulerRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry holding the paper's four policies under the keys
    /// `"baseline"`, `"strex"`, `"slicc"` and `"hybrid"`.
    pub fn with_defaults() -> Self {
        let mut reg = SchedulerRegistry::empty();
        reg.register(Box::new(BuiltIn {
            kind: SchedulerKind::Baseline,
            build: |_| BaselineSched::new(),
        }));
        reg.register(Box::new(BuiltIn {
            kind: SchedulerKind::Strex,
            build: |c| StrexSched::new(c.strex),
        }));
        reg.register(Box::new(BuiltIn {
            kind: SchedulerKind::Slicc,
            build: |c| SliccSched::new(c.slicc),
        }));
        reg.register(Box::new(BuiltIn {
            kind: SchedulerKind::Hybrid,
            build: |c| HybridSched::new(c.strex, c.slicc, c.system.l1i_geometry.size_bytes()),
        }));
        reg
    }

    /// Adds `factory`, replacing any entry with the same name.
    pub fn register(&mut self, factory: Box<dyn SchedulerFactory>) {
        self.entries.retain(|e| e.name() != factory.name());
        self.entries.push(factory);
    }

    /// Looks a factory up by name.
    pub fn get(&self, name: &str) -> Option<&dyn SchedulerFactory> {
        self.entries
            .iter()
            .find(|e| e.name() == name)
            .map(AsRef::as_ref)
    }

    /// Builds a scheduler by name, or `None` if the name is unknown.
    pub fn create(&self, name: &str, config: &SimConfig) -> Option<Box<dyn Scheduler>> {
        self.get(name).map(|f| f.create(config))
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name()).collect()
    }
}

impl Default for SchedulerRegistry {
    fn default() -> Self {
        SchedulerRegistry::with_defaults()
    }
}

/// The process-wide registry [`driver::run`](crate::driver::run()) consults:
/// the built-in policies. Callers needing custom entries build their own
/// [`SchedulerRegistry`] and go through
/// [`Campaign::run_on`](crate::campaign::Campaign::run_on).
pub fn global() -> &'static SchedulerRegistry {
    static GLOBAL: OnceLock<SchedulerRegistry> = OnceLock::new();
    GLOBAL.get_or_init(SchedulerRegistry::with_defaults)
}

/// A built-in policy: its registry key and the one function that
/// constructs its scheduler. Both [`create`](SchedulerFactory::create) and
/// the typed run go through `build`, so the two driver paths cannot drift
/// apart on construction.
struct BuiltIn<S> {
    kind: SchedulerKind,
    build: fn(&SimConfig) -> S,
}

impl<S: Scheduler + 'static> SchedulerFactory for BuiltIn<S> {
    fn name(&self) -> &'static str {
        self.kind.key()
    }

    fn create(&self, config: &SimConfig) -> Box<dyn Scheduler> {
        Box::new((self.build)(config))
    }

    fn built_in(&self) -> Option<SchedulerKind> {
        Some(self.kind)
    }

    fn run_typed(
        &self,
        workload: &Workload,
        config: &SimConfig,
        scratch: &mut SimScratch,
    ) -> Option<Report> {
        let mut sched = (self.build)(config);
        Some(driver::run_with(workload, config, &mut sched, scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_kind() {
        let reg = SchedulerRegistry::with_defaults();
        for kind in SchedulerKind::ALL {
            let factory = reg.get(kind.key()).expect("registered");
            assert_eq!(factory.built_in(), Some(kind));
        }
        assert_eq!(reg.names().len(), 4);
    }

    #[test]
    fn create_builds_the_right_policy() {
        let reg = SchedulerRegistry::with_defaults();
        let cfg = SimConfig::new(2, SchedulerKind::Strex);
        let sched = reg.create("strex", &cfg).expect("registered");
        assert_eq!(sched.name(), "STREX");
        assert!(reg.create("unknown", &cfg).is_none());
    }

    #[test]
    fn register_replaces_same_name() {
        struct Override;
        impl SchedulerFactory for Override {
            fn name(&self) -> &'static str {
                "baseline"
            }
            fn create(&self, _c: &SimConfig) -> Box<dyn Scheduler> {
                Box::new(StrexSched::new(crate::config::StrexParams::default()))
            }
        }
        let mut reg = SchedulerRegistry::with_defaults();
        reg.register(Box::new(Override));
        assert_eq!(reg.names().len(), 4);
        assert_eq!(reg.get("baseline").and_then(|f| f.built_in()), None);
        let cfg = SimConfig::new(2, SchedulerKind::Baseline);
        let sched = reg.create("baseline", &cfg).expect("still present");
        assert_eq!(sched.name(), "STREX", "override must win");
    }

    #[test]
    fn global_registry_is_stable() {
        assert!(std::ptr::eq(global(), global()));
        assert_eq!(global().names().len(), 4);
    }
}
