//! **Area-efficient error protection for caches** — the primary
//! contribution of Soontae Kim's DATE 2006 paper, implemented in full.
//!
//! The paper's scheme combines three mechanisms, each a module here:
//!
//! 1. **Non-uniform protection** ([`nonuniform`]): every L2 line is covered
//!    by cheap interleaved parity (1 bit / 64 data bits); only *dirty*
//!    lines — the sole copy of their data — get SECDED ECC. Clean lines
//!    that fail parity are recovered by refetching from main memory.
//! 2. **Dirty-line cleaning** ([`cleaning`]): a per-line *written* bit
//!    extends the dirty bit; a tiny FSM (cycle counter + next-set latch)
//!    walks the cache one set per `interval/sets` cycles and writes back
//!    lines that are dirty but quiescent (`dirty && !written`), exploiting
//!    the generational behaviour of cache lines.
//! 3. **A shared per-set ECC array** ([`nonuniform::NonUniformScheme`]):
//!    one 8-byte ECC entry per cache *set* (4 K entries = 32 KB for the
//!    1 MB L2), shared by all four ways. The invariant *at most one dirty
//!    line per set* is maintained by force-cleaning (ECC-WB) the previous
//!    dirty line whenever a different way of the same set is written.
//!
//! [`NonUniformScheme`] is built from the [`SchemeKind`] it serves and
//! covers the paper's design and every variant of it: the `k`-entry-per-set
//! ECC array of the design-space ablation ([`SchemeKind::ProposedMulti`]),
//! silent-store elision (Kishani et al., [`SchemeKind::SilentWriteEcc`]),
//! and reuse-predicted early copy-back (Wang et al.,
//! [`SchemeKind::ReuseCopyback`], whose predictor is a
//! [`cleaning::CleaningPolicy`]).
//!
//! The conventional uniform-SECDED baseline lives in [`uniform`], a
//! parity-only strawman in [`parity_only`], and the paper's area accounting
//! in [`area`]. Each scheme's soft-error recovery path (detect →
//! correct/refetch) is its [`ProtectionScheme::verify_line`]; the
//! `aep-faultsim` crate exercises it with live fault-injection campaigns.
//!
//! The named scheme sets the figures compare — the paper's cleaning
//! intervals, `proposed@1M`, the ablation and challenger line-ups — are
//! declared once in [`lineup`], beside the enum they enumerate.
//!
//! # Quick example
//!
//! ```
//! use aep_core::{AreaModel, SchemeKind};
//! use aep_mem::CacheConfig;
//!
//! let model = AreaModel::new(&CacheConfig::date2006_l2());
//! let conventional = model.conventional().total();
//! let proposed = model.proposed().total();
//! assert_eq!(conventional.kib(), 132.0);
//! assert_eq!(proposed.kib(), 54.0);
//! // The paper's headline: 59% area reduction.
//! assert!((conventional.reduction_to(proposed) - 0.59).abs() < 0.01);
//! # let _ = SchemeKind::Uniform;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod cleaning;
pub mod energy;
pub mod lineup;
pub mod nonuniform;
pub mod parity_only;
pub mod reliability;
pub mod scheme;
pub mod scrub;
pub mod uniform;

pub use area::{AreaModel, AreaReport};
pub use cleaning::CleaningLogic;
pub use energy::EnergyModel;
pub use nonuniform::NonUniformScheme;
pub use parity_only::ParityOnlyScheme;
pub use reliability::{FitReport, SoftErrorModel};
pub use scheme::{
    parse_scheme_slug, scheme_slug, Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome,
    SchemeKind,
};
pub use scrub::Scrubber;
pub use uniform::UniformEccScheme;
