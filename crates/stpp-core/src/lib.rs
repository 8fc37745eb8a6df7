//! # stpp-core
//!
//! The primary contribution of the STPP paper: **relative localization of
//! RFID tags from spatial-temporal phase profiles**.
//!
//! Given the report stream a reader produces while it (or the tag
//! population) moves, STPP recovers the *order* of the tags along the
//! movement axis (X) and the orthogonal in-plane axis (Y) without ever
//! computing absolute coordinates:
//!
//! 1. [`profile`] — each tag's reports become a **phase profile**, a time
//!    series of wrapped phase values with gaps.
//! 2. [`reference`](mod@reference) — from the nominal geometry and speed, an analytic
//!    **reference profile** (4 periods by default) is generated; its
//!    central V-zone is known exactly.
//! 3. [`segment`] + [`dtw`] — both profiles are compressed into
//!    coarse-grained segment representations and aligned with (subsequence)
//!    **Dynamic Time Warping**, which tolerates the stretching and
//!    compression caused by uneven hand movement; the alignment localises
//!    the **V-zone** in the measured profile.
//! 4. [`vzone`] — a quadratic fit over the V-zone yields the
//!    **perpendicular-point time** (profile nadir) and the bottom phase.
//! 5. [`ordering`] — tags are ordered along X by nadir time and along Y by
//!    comparing coarse V-zone representations (the `O`/`G` metrics and the
//!    pivot-based ordering of the paper).
//! 6. [`pipeline`] — [`pipeline::RelativeLocalizer`]
//!    ties it all together, consuming a
//!    [`SweepRecording`](rfid_reader::SweepRecording) and producing the 2-D
//!    relative ordering; [`metrics`] scores it against ground truth
//!    (ordering accuracy, Equation 2, plus Kendall's τ).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod dtw;
pub mod metrics;
pub mod ordering;
pub mod pipeline;
pub mod profile;
pub mod reference;
pub mod segment;
pub mod streaming;
pub mod vzone;

pub use batch::BatchLocalizer;
pub use dtw::{
    dtw_full, dtw_screen_lockstep, dtw_segmented, dtw_segmented_features_into, dtw_segmented_into,
    dtw_segmented_with_penalty, dtw_subsequence, path_matched_range, DtwResult, DtwScratch,
    IncrementalDtwCost, ScreenOutcome, SegmentFeatures,
};
pub use metrics::{kendall_tau, ordering_accuracy, OrderingScore};
pub use ordering::{gap_metric, order_metric, OrderingEngine, TagVZoneSummary};
pub use pipeline::{
    LocalizationError, PreparedRequest, RelativeLocalizer, SharedPreparedRequest, StppConfig,
    StppInput, StppResult,
};
pub use profile::{PhaseProfile, PhaseSample, TagObservations};
pub use reference::{
    BankCacheStats, OffsetPattern, ReferenceBank, ReferenceBankCache, ReferenceProfile,
    ReferenceProfileParams,
};
pub use segment::{Segment, SegmentedProfile};
pub use streaming::{ProvisionalEstimate, StreamingTagTracker};
pub use vzone::{DetectError, DetectScratch, QuadraticFit, VZone, VZoneDetection, VZoneDetector};
