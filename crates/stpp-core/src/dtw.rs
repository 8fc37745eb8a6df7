//! Dynamic Time Warping.
//!
//! DTW aligns a reference phase profile with a measured one even when the
//! measured profile has been stretched or compressed by uneven reader
//! movement. Three variants are provided:
//!
//! * [`dtw_full`] — the classic `O(M·N)` alignment over raw sample values,
//! * [`dtw_subsequence`] — open-begin / open-end alignment that locates the
//!   (short) reference *inside* a longer measured profile, which is exactly
//!   the paper's "find where the V-zone appears in the measured phase
//!   profile" problem,
//! * [`dtw_segmented`] — the paper's optimisation: alignment over the
//!   coarse segment representations, with the segment-range distance and
//!   the `min(s^T_P, s^T_Q)` time weighting from Section 3.1.2, reducing
//!   the complexity to `O(M·N / w²)`.
//!
//! Every alignment is exact: each one fills the whole DP table.
//!
//! ## One recurrence, three kernels
//!
//! One row update (`advance_rows`) holds the recurrence: each cell adds
//! its local cost to the cheapest of its diagonal, upper and left
//! neighbours, preferring them in that order on ties. It advances one
//! table or, for a fixed number of independent tables, all of them in
//! one pass over the measured columns. Two kernels walk the table row by
//! row through it:
//!
//! * the **path-recording kernel** behind every alignment function
//!   stores a move tag per cell, so the warping path can be traced back;
//! * the **lockstep screen** [`dtw_screen_lockstep`] advances many
//!   candidate references against one measured representation with two
//!   rolling rows each and no move tags, two lanes per pass, abandoning a
//!   candidate once it cannot finish under its limit.
//!
//! Because both kernels call the same row update, a cost the lockstep
//! screen completes is bit-identical to the path-recording kernel's cost
//! for the same candidate. [`IncrementalDtwCost`] fills the same table
//! column by column for streaming callers, with the same cell cost and
//! neighbour preference.
//!
//! The segmented kernels require finite segment features: phase bounds
//! and durations that are neither NaN nor infinite. Detection validates
//! its profiles first and the streaming tracker drops non-finite
//! samples, so every production input meets this.
//!
//! All DP state lives in a caller-owned [`DtwScratch`], so repeated
//! alignments — the 8 offset candidates × hundreds of tags of the
//! localization hot path — perform no heap allocation after the first
//! call at a given problem size.
//!
//! The scratch entry points also support *early abandoning*: because
//! local costs and gap penalties are non-negative, the minimum
//! accumulated cost in a row is a lower bound on the final cost, and an
//! alignment that can no longer beat `abandon_above` is cut off
//! mid-matrix. The V-zone detector uses this to discard the offset
//! candidates that lose against the best match so far.

use serde::{Deserialize, Serialize};

use crate::segment::SegmentedProfile;

/// The result of a DTW alignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DtwResult {
    /// Total cost of the optimal warping path.
    pub cost: f64,
    /// The warping path as `(reference_index, measured_index)` pairs in
    /// non-decreasing order of both indices.
    pub path: Vec<(usize, usize)>,
}

impl DtwResult {
    /// The measured indices matched to a given reference index.
    pub fn matched_indices(&self, reference_idx: usize) -> Vec<usize> {
        self.path.iter().filter(|(r, _)| *r == reference_idx).map(|(_, m)| *m).collect()
    }

    /// The range of measured indices matched to a reference index range
    /// `[start, end)`, or `None` if nothing matched.
    pub fn matched_range(&self, start: usize, end: usize) -> Option<std::ops::Range<usize>> {
        path_matched_range(&self.path, start..end)
    }

    /// The matched measured range of *every* reference index in a single
    /// traversal of the path. Entry `i` of the returned vector is the
    /// measured index range matched to reference index `i`, or `None` if
    /// reference index `i` never appears on the path (possible only for
    /// indices past the path's last reference index). Querying all
    /// per-segment ranges this way is `O(path + segments)` instead of the
    /// `O(segments × path)` of repeated [`matched_range`](Self::matched_range)
    /// calls.
    pub fn matched_ranges(&self) -> Vec<Option<std::ops::Range<usize>>> {
        let n = self.path.iter().map(|&(r, _)| r + 1).max().unwrap_or(0);
        let mut out: Vec<Option<std::ops::Range<usize>>> = vec![None; n];
        for &(r, m) in &self.path {
            match &mut out[r] {
                Some(range) => {
                    range.start = range.start.min(m);
                    range.end = range.end.max(m + 1);
                }
                slot => *slot = Some(m..m + 1),
            }
        }
        out
    }
}

/// The measured index range a warping path matches to the reference index
/// range `seg_range`, in one pass over the path. Shared by
/// [`DtwResult::matched_range`] and the scratch-based V-zone hot path
/// (which borrows the path from a [`DtwScratch`] instead of owning a
/// [`DtwResult`]).
pub fn path_matched_range(
    path: &[(usize, usize)],
    seg_range: std::ops::Range<usize>,
) -> Option<std::ops::Range<usize>> {
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for &(r, m) in path {
        if r >= seg_range.start && r < seg_range.end {
            lo = lo.min(m);
            hi = hi.max(m + 1);
        }
    }
    if lo == usize::MAX {
        None
    } else {
        Some(lo..hi)
    }
}

/// Move tags recorded per cell so the traceback replays exactly the
/// decisions of the forward pass.
const MOVE_START: u8 = 1;
const MOVE_DIAG: u8 = 2;
const MOVE_UP: u8 = 3;
const MOVE_LEFT: u8 = 4;

/// Reusable DP arena for the DTW kernels.
///
/// Buffers grow to the largest problem seen and are then reused, so a
/// warmed-up scratch performs zero heap allocations per alignment. One
/// scratch serves any number of sequential alignments; use one scratch per
/// worker thread for parallel batches.
#[derive(Debug, Default, Clone)]
pub struct DtwScratch {
    /// Accumulated-cost matrix, row-major.
    acc: Vec<f64>,
    /// Per-cell move tag (`MOVE_*`).
    moves: Vec<u8>,
    /// The traced warping path of the most recent alignment.
    path: Vec<(usize, usize)>,
    /// Flattened segment features for the profile-level segmented entry
    /// points (the bank-backed hot path brings its own, precomputed).
    ref_feat: SegmentFeatures,
    mea_feat: SegmentFeatures,
    /// Lockstep screening arena: two rolling DP rows per candidate lane,
    /// laid out lane-major (`[lane 0 row A][lane 0 row B][lane 1 row A]…`)
    /// so each lane's row advance streams through contiguous memory while
    /// the measured-side feature arrays stay hot across all lanes.
    lockstep: Vec<f64>,
    /// Indices of the lockstep lanes still running, in ascending order:
    /// the screen's worklist, advanced two lanes at a time.
    live: Vec<usize>,
}

/// Per-segment features of a [`SegmentedProfile`] flattened into
/// structure-of-arrays form for the segmented DTW inner loop: phase range
/// bounds plus the effective (floored) time interval. Precompute these
/// once per representation — the V-zone detector's reference bank stores
/// them per offset pattern, and the measured profile's features are built
/// once per tag and shared by all 8 offset alignments.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SegmentFeatures {
    lo: Vec<f64>,
    hi: Vec<f64>,
    dur: Vec<f64>,
}

impl SegmentFeatures {
    /// Builds the features of a segmented profile.
    pub fn from_segmented(segmented: &SegmentedProfile) -> Self {
        let mut out = SegmentFeatures::default();
        out.refill(segmented);
        out
    }

    /// Clears and refills in place, reusing the buffers.
    pub fn refill(&mut self, segmented: &SegmentedProfile) {
        self.lo.clear();
        self.hi.clear();
        self.dur.clear();
        for s in segmented.segments() {
            self.push(s.min_phase, s.max_phase, s.time_interval());
        }
    }

    /// Appends one segment given its phase range `[lo, hi]` and raw time
    /// interval, applying the `1e-3` duration floor every representation
    /// gets. This is the raw-triple entry streaming callers (and property
    /// tests) use to grow a representation segment by segment.
    ///
    /// All three values must be finite (checked in debug builds): the
    /// segment cost is written with compare-selects that assume no NaN.
    pub fn push(&mut self, lo: f64, hi: f64, interval_s: f64) {
        debug_assert!(
            lo.is_finite() && hi.is_finite() && interval_s.is_finite(),
            "non-finite segment ({lo}, {hi}, {interval_s})"
        );
        self.lo.push(lo);
        self.hi.push(hi);
        self.dur.push(interval_s.max(1e-3));
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether there are no segments.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }
}

/// The local cost of pairing a reference segment with a measured one:
/// the gap between their phase ranges weighted by the shorter of the two
/// durations (Section 3.1.2). The gap is the larger of the two signed
/// distances between the ranges, floored at zero (overlapping ranges
/// cost nothing).
///
/// Every DP cell evaluates this, so it is written with compare-selects,
/// which lower to single `maxsd`/`minsd` instructions on x86-64;
/// `f64::max`/`f64::min` add NaN handling around each. Inputs are finite
/// (see [`SegmentFeatures::push`]), where the two forms agree bit for
/// bit except that a zero gap here is always `+0.0`.
#[inline(always)]
fn segment_cost(r_lo: f64, r_hi: f64, r_dur: f64, m_lo: f64, m_hi: f64, m_dur: f64) -> f64 {
    let (below, above) = (r_lo - m_hi, m_lo - r_hi);
    let gap = if below > above { below } else { above };
    let gap = if gap > 0.0 { gap } else { 0.0 };
    let dur = if r_dur < m_dur { r_dur } else { m_dur };
    dur * gap
}

/// The local costs of reference segment `i` against every measured
/// segment, as the per-row cost function the kernels take.
#[inline(always)]
fn segment_row_costs<'a>(
    reference: &SegmentFeatures,
    i: usize,
    measured: &'a SegmentFeatures,
) -> impl Fn(usize) -> f64 + 'a {
    let (r_lo, r_hi, r_dur) = (reference.lo[i], reference.hi[i], reference.dur[i]);
    let m = measured.len();
    let (m_lo, m_hi, m_dur) = (&measured.lo[..m], &measured.hi[..m], &measured.dur[..m]);
    move |j| segment_cost(r_lo, r_hi, r_dur, m_lo[j], m_hi[j], m_dur[j])
}

/// Advances `N` independent DP tables by one row each: fills `cur[l]`
/// from the row above, `prev[l]`, and returns each row's minimum.
///
/// Cell `j` adds `cost[l](j)` to the cheapest of its diagonal neighbour
/// `prev[l][j − 1]`, its upper neighbour `prev[l][j] + up_penalty[l]` and
/// its left neighbour `cur[l][j − 1] + left_penalty(j)`; ties prefer
/// diagonal, then up (the seed's order). Column 0 has only its upper
/// neighbour. When `moves[l]` is given, the chosen neighbour of each cell
/// is recorded there for the traceback. All tables share the measured
/// columns (`left_penalty`), and table `l`'s values depend on nothing
/// else of the others: each row is one serial recurrence (a cell's left
/// neighbour is the cell just computed), so walking `N > 1` tables in one
/// pass overlaps their recurrences without changing any value. Every
/// row-major kernel advances through this one function, so their costs
/// agree bit for bit.
#[inline(always)]
fn advance_rows<const N: usize, C, L>(
    prev: [&[f64]; N],
    cur: [&mut [f64]; N],
    moves: [Option<&mut [u8]>; N],
    up_penalty: [f64; N],
    cost: [C; N],
    left_penalty: L,
) -> [f64; N]
where
    C: Fn(usize) -> f64,
    L: Fn(usize) -> f64,
{
    let m = cur[0].len();
    let prev = prev.map(|p| &p[..m]);
    let cur = cur.map(|c| &mut c[..m]);
    let mut moves = moves.map(|mv| mv.map(|mv| &mut mv[..m]));
    let mut left = [0.0; N];
    for l in 0..N {
        left[l] = cost[l](0) + (prev[l][0] + up_penalty[l]);
        cur[l][0] = left[l];
        if let Some(mv) = moves[l].as_deref_mut() {
            mv[0] = MOVE_UP;
        }
    }
    let mut row_min = left;
    for j in 1..m {
        let left_step = left_penalty(j);
        for l in 0..N {
            let diag = prev[l][j - 1];
            let up = prev[l][j] + up_penalty[l];
            let left_cost = left[l] + left_step;
            let mut best = diag;
            let mut tag = MOVE_DIAG;
            if up < best {
                best = up;
                tag = MOVE_UP;
            }
            if left_cost < best {
                best = left_cost;
                tag = MOVE_LEFT;
            }
            let v = cost[l](j) + best;
            cur[l][j] = v;
            if let Some(mv) = moves[l].as_deref_mut() {
                mv[j] = tag;
            }
            left[l] = v;
            if v < row_min[l] {
                row_min[l] = v;
            }
        }
    }
    row_min
}

impl DtwScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        DtwScratch::default()
    }

    /// The warping path of the most recent successful alignment, as
    /// `(reference_index, measured_index)` pairs. Empty before the first
    /// alignment and after a failed one.
    pub fn path(&self) -> &[(usize, usize)] {
        &self.path
    }

    /// Materialises the most recent alignment as an owned [`DtwResult`].
    fn to_result(&self, cost: f64) -> DtwResult {
        DtwResult { cost, path: self.path.clone() }
    }
}

/// The path-recording kernel. `row_costs(i)` gives the local cost
/// function of reference row `i`; `up_penalty(i)` and `left_penalty(j)`
/// charge the warping steps that stay on one measured or one reference
/// index. Fills `scratch` (cost matrix, move tags and the traced path)
/// and returns the optimal cost, or `None` when either sequence is empty
/// or the row-minimum lower bound exceeded `abandon_above`.
#[allow(clippy::too_many_arguments)] // one internal kernel, many thin wrappers
fn dtw_kernel<R, C, U, L>(
    n: usize,
    m: usize,
    row_costs: R,
    up_penalty: U,
    left_penalty: L,
    subsequence: bool,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64>
where
    R: Fn(usize) -> C,
    C: Fn(usize) -> f64,
    U: Fn(usize) -> f64,
    L: Fn(usize) -> f64,
{
    scratch.path.clear();
    if n == 0 || m == 0 {
        return None;
    }
    let DtwScratch { acc, moves, path, .. } = scratch;
    if acc.len() < n * m {
        acc.resize(n * m, f64::INFINITY);
        moves.resize(n * m, MOVE_START);
    }
    let cost0 = row_costs(0);
    if subsequence {
        // The match may start at any measured column for free.
        for (j, slot) in acc[..m].iter_mut().enumerate() {
            *slot = cost0(j);
        }
        moves[..m].fill(MOVE_START);
    } else {
        acc[0] = cost0(0);
        moves[0] = MOVE_START;
        for j in 1..m {
            acc[j] = cost0(j) + acc[j - 1] + left_penalty(j);
            moves[j] = MOVE_LEFT;
        }
    }
    for i in 1..n {
        let (done, rest) = acc.split_at_mut(i * m);
        let [row_min] = advance_rows(
            [&done[(i - 1) * m..]],
            [&mut rest[..m]],
            [Some(&mut moves[i * m..(i + 1) * m])],
            [up_penalty(i)],
            [row_costs(i)],
            &left_penalty,
        );
        // Costs and penalties are non-negative, so the best cell of this
        // row lower-bounds every completion through it.
        if abandon_above.is_some_and(|limit| row_min > limit) {
            return None;
        }
    }
    finish_alignment(acc, moves, path, n, m, subsequence, abandon_above)
}

/// Tail of the path-recording kernel: picks the endpoint (anywhere on the
/// last reference row for subsequence alignment — the *first* minimum on
/// ties, matching the seed's `Iterator::min_by` — the corner otherwise),
/// applies the final abandon check, and replays the recorded moves back
/// to the path start.
fn finish_alignment(
    acc: &[f64],
    moves: &[u8],
    path: &mut Vec<(usize, usize)>,
    n: usize,
    m: usize,
    subsequence: bool,
    abandon_above: Option<f64>,
) -> Option<f64> {
    let last = &acc[(n - 1) * m..n * m];
    let end_j = if subsequence {
        let mut best_j = 0;
        for j in 1..m {
            if last[j] < last[best_j] {
                best_j = j;
            }
        }
        best_j
    } else {
        m - 1
    };
    let total_cost = last[end_j];
    if !total_cost.is_finite() || abandon_above.is_some_and(|limit| total_cost > limit) {
        return None;
    }

    let mut i = n - 1;
    let mut j = end_j;
    loop {
        path.push((i, j));
        match moves[i * m + j] {
            MOVE_DIAG => {
                i -= 1;
                j -= 1;
            }
            MOVE_UP => i -= 1,
            MOVE_LEFT => j -= 1,
            _ => break,
        }
    }
    path.reverse();
    Some(total_cost)
}

/// Runs the kernel over raw sample values with absolute-difference local
/// cost.
fn dtw_values_into(
    reference: &[f64],
    measured: &[f64],
    subsequence: bool,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    dtw_kernel(
        reference.len(),
        measured.len(),
        |i| {
            let r = reference[i];
            move |j: usize| (r - measured[j]).abs()
        },
        |_| 0.0,
        |_| 0.0,
        subsequence,
        None,
        scratch,
    )
}

/// Classic full-sequence DTW over raw values with absolute-difference local
/// cost. Returns `None` if either sequence is empty.
pub fn dtw_full(reference: &[f64], measured: &[f64]) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let cost = dtw_values_into(reference, measured, false, &mut scratch)?;
    Some(scratch.to_result(cost))
}

/// Subsequence DTW: aligns the whole `reference` against the best-matching
/// contiguous (warped) part of `measured`. Returns `None` if either
/// sequence is empty.
pub fn dtw_subsequence(reference: &[f64], measured: &[f64]) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let cost = dtw_values_into(reference, measured, true, &mut scratch)?;
    Some(scratch.to_result(cost))
}

/// The paper's segmented DTW: aligns two coarse segment representations
/// using the segment range distance weighted by the shorter of the two
/// segments' time intervals. With `subsequence = true` (the V-zone
/// detection use case) the reference may match anywhere inside the
/// measured representation. Path indices refer to *segments*.
pub fn dtw_segmented(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
) -> Option<DtwResult> {
    dtw_segmented_with_penalty(reference, measured, subsequence, 0.0)
}

/// [`dtw_segmented`] with a non-negative *gap penalty* (radians per second
/// of warped time). Each warping step that consumes one representation
/// without advancing the other is charged `penalty · segment duration`.
/// This keeps the optimal path from collapsing the whole reference onto a
/// single wide-range measured segment — a failure mode that otherwise
/// appears when a deep multipath fade produces one segment whose phase
/// range overlaps everything.
pub fn dtw_segmented_with_penalty(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
    gap_penalty_per_second: f64,
) -> Option<DtwResult> {
    let mut scratch = DtwScratch::new();
    let cost = dtw_segmented_into(
        reference,
        measured,
        subsequence,
        gap_penalty_per_second,
        None,
        &mut scratch,
    )?;
    Some(scratch.to_result(cost))
}

/// The zero-alloc segmented DTW entry point: writes all DP state and the
/// warping path into `scratch` (read it back via [`DtwScratch::path`])
/// and returns only the cost. Segment phases and durations must be
/// finite (see [`SegmentFeatures::push`]).
///
/// `abandon_above` enables early abandoning: when every path prefix
/// already costs more than the given bound, the alignment is cut off and
/// `None` is returned — exactly as if the alignment had lost a comparison
/// it could no longer win.
pub fn dtw_segmented_into(
    reference: &SegmentedProfile,
    measured: &SegmentedProfile,
    subsequence: bool,
    gap_penalty_per_second: f64,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    scratch.ref_feat.refill(reference);
    scratch.mea_feat.refill(measured);
    let DtwScratch { ref_feat, mea_feat, .. } = scratch;
    let (rf, mf) = (std::mem::take(ref_feat), std::mem::take(mea_feat));
    let cost = dtw_segmented_features_into(
        &rf,
        &mf,
        subsequence,
        gap_penalty_per_second,
        abandon_above,
        scratch,
    );
    scratch.ref_feat = rf;
    scratch.mea_feat = mf;
    cost
}

/// [`dtw_segmented_into`] over pre-flattened [`SegmentFeatures`] — the
/// innermost hot-path entry: no per-call feature extraction at all. The
/// reference features come straight from the detector's reference bank
/// and the measured features are built once per tag, so the 8 offset
/// alignments of one tag share both. Features must be finite (see
/// [`SegmentFeatures::push`]).
pub fn dtw_segmented_features_into(
    reference: &SegmentFeatures,
    measured: &SegmentFeatures,
    subsequence: bool,
    gap_penalty_per_second: f64,
    abandon_above: Option<f64>,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    let penalty = gap_penalty_per_second.max(0.0);
    let m_dur = &measured.dur[..measured.len()];
    dtw_kernel(
        reference.len(),
        measured.len(),
        |i| segment_row_costs(reference, i, measured),
        |i| penalty * reference.dur[i],
        |j| penalty * m_dur[j],
        subsequence,
        abandon_above,
        scratch,
    )
}

/// Append-only, column-major evaluation of the segmented subsequence DTW
/// cost — the streaming counterpart of [`dtw_segmented_features_into`].
///
/// The batch kernels walk the DP table row by row (one row per
/// *reference* segment) and need the complete measured representation up
/// front. Every cell, though, is a pure function of its three
/// predecessors, so the same table can be filled **column by column**
/// (one column per *measured* segment) while the measured profile is
/// still arriving: the tracker keeps the most recent column
/// (`n = reference.len()` values) and folds each newly completed measured
/// segment into it in `O(n)`. Because the subsequence alignment may end
/// at any measured column, the minimum over the last-row entry of every
/// appended column — maintained as a running minimum — *is* the optimal
/// subsequence cost over the measured prefix seen so far.
///
/// Cell values, the three-way minimum, and the running best are computed
/// with exactly the arithmetic (operand order included) of the batch
/// kernels, so after `j` appends [`best`](Self::best) is
/// **bit-identical** to a batch subsequence alignment against the first
/// `j` measured segments — property-tested in this module. There is no
/// early abandoning: no competing candidate cost exists to abandon
/// against while streaming; callers simply stop appending when they lose
/// interest in a lane.
#[derive(Debug, Default, Clone)]
pub struct IncrementalDtwCost {
    /// The accumulated-cost column of the most recently appended measured
    /// segment (`col[i] = acc[i][j]`), length `reference.len()`.
    col: Vec<f64>,
    /// Number of measured segments appended since the last reset.
    appended: usize,
    /// Running minimum over the last-row entries of all appended columns.
    best: f64,
}

impl IncrementalDtwCost {
    /// Creates an empty incremental alignment.
    pub fn new() -> Self {
        IncrementalDtwCost { col: Vec::new(), appended: 0, best: f64::INFINITY }
    }

    /// Discards all appended measured segments, keeping the column
    /// allocation for reuse.
    pub fn reset(&mut self) {
        self.col.clear();
        self.appended = 0;
        self.best = f64::INFINITY;
    }

    /// Number of measured segments appended since the last reset.
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// The optimal subsequence cost over the measured segments appended
    /// so far: bit-identical to [`dtw_segmented_features_into`] (in
    /// subsequence mode, no abandon limit) against the same measured
    /// prefix. `None` before the first append.
    pub fn best(&self) -> Option<f64> {
        if self.best.is_finite() {
            Some(self.best)
        } else {
            None
        }
    }

    /// Appends one measured segment — its phase range `[m_lo, m_hi]` and
    /// raw time interval (the `1e-3` floor of
    /// [`SegmentFeatures::refill`] is applied here, so callers pass
    /// [`Segment::time_interval`](crate::segment::Segment::time_interval)
    /// directly) — and returns the updated [`best`](Self::best).
    ///
    /// `reference` must be the same representation on every append of one
    /// stream (checked by length in debug builds); `reset` before
    /// switching references. The segment's values must be finite (checked
    /// in debug builds), as for [`SegmentFeatures::push`].
    pub fn append(
        &mut self,
        reference: &SegmentFeatures,
        gap_penalty_per_second: f64,
        m_lo: f64,
        m_hi: f64,
        m_interval_s: f64,
    ) -> Option<f64> {
        let n = reference.len();
        if n == 0 {
            return None;
        }
        debug_assert!(
            m_lo.is_finite() && m_hi.is_finite() && m_interval_s.is_finite(),
            "non-finite segment ({m_lo}, {m_hi}, {m_interval_s})"
        );
        let penalty = gap_penalty_per_second.max(0.0);
        let m_dur = m_interval_s.max(1e-3);
        let cell = |i: usize| -> f64 {
            segment_cost(reference.lo[i], reference.hi[i], reference.dur[i], m_lo, m_hi, m_dur)
        };
        if self.appended == 0 {
            // First measured column: row 0 is a free subsequence start
            // (pure cell cost); rows below can only arrive from above.
            self.col.clear();
            self.col.reserve(n);
            let mut above = cell(0);
            self.col.push(above);
            for i in 1..n {
                let v = cell(i) + (above + penalty * reference.dur[i]);
                self.col.push(v);
                above = v;
            }
        } else {
            debug_assert_eq!(self.col.len(), n, "reference changed between appends");
            let pl = penalty * m_dur;
            // `diag` carries the previous column's row `i − 1` value: read
            // each old slot before overwriting it.
            let mut diag = self.col[0];
            let mut above = cell(0);
            self.col[0] = above;
            for i in 1..n {
                let left = self.col[i];
                let up = above + penalty * reference.dur[i];
                let left_cost = left + pl;
                // Same preference order as `advance_rows`: diagonal, then
                // up, then left (ties keep the earlier move).
                let mut best = diag;
                if up < best {
                    best = up;
                }
                if left_cost < best {
                    best = left_cost;
                }
                let v = cell(i) + best;
                diag = left;
                self.col[i] = v;
                above = v;
            }
        }
        self.appended += 1;
        let last = self.col[n - 1];
        if last < self.best {
            self.best = last;
        }
        self.best()
    }
}

/// Per-candidate outcome of a [`dtw_screen_lockstep`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreenOutcome {
    /// The candidate's alignment ran to completion under its limit. The
    /// cost is **bit-identical** to what the path-recording kernel
    /// ([`dtw_segmented_features_into`] in subsequence mode) returns for
    /// the same inputs.
    Completed(f64),
    /// The candidate was cut off because its running row minimum (or its
    /// final cost) exceeded its limit. The carried value is a true
    /// **lower bound** on the candidate's exact alignment cost: every
    /// complete warping path crosses the row that triggered the abandon.
    Abandoned {
        /// A lower bound on the candidate's exact alignment cost.
        lower_bound: f64,
    },
    /// No alignment exists: the candidate (or measured) representation is
    /// empty, or every endpoint is non-finite.
    Infeasible,
}

impl ScreenOutcome {
    /// The completed cost, if any.
    pub fn completed(self) -> Option<f64> {
        match self {
            ScreenOutcome::Completed(cost) => Some(cost),
            _ => None,
        }
    }
}

/// The outcome of a lane whose final row is `row`: the row minimum is
/// the subsequence cost (the endpoint may be any measured column).
fn finish_lane(row: &[f64], limit: f64) -> ScreenOutcome {
    let mut total = f64::INFINITY;
    for &v in row {
        if v < total {
            total = v;
        }
    }
    if !total.is_finite() {
        ScreenOutcome::Infeasible
    } else if total > limit {
        ScreenOutcome::Abandoned { lower_bound: total }
    } else {
        ScreenOutcome::Completed(total)
    }
}

/// Cost-only segmented subsequence DTW over **many candidate references
/// in lockstep**: the measured representation is walked once per row
/// while every live candidate advances its own two-row cost table, so the
/// measured-side feature arrays (and the row arena in [`DtwScratch`])
/// stay cache-hot across all candidates instead of being re-streamed per
/// candidate.
///
/// The live lanes advance **in pairs**: consecutive lanes of the
/// ascending worklist share one pass over the measured columns, and an
/// odd lane left over advances alone. A lane's row is one serial
/// recurrence (each cell waits for the cell to its left), so a pair keeps
/// two independent recurrences in flight where one lane alone would leave
/// the core waiting on each cell. The worklist is compacted after every
/// row, so lanes that finish or abandon drop out and the rest regroup.
/// Pairing changes no value: each lane's cells are computed by the same
/// row update, in the same order, as when it advances alone.
///
/// Each lane advances through the same row update as the path-recording
/// kernel, so a `Completed` cost is bit-identical to
/// [`dtw_segmented_features_into`] (subsequence mode) for the same
/// candidate, and a lane abandons exactly when that kernel would return
/// `None` under `abandon_above = limits[k]`. Row minima never decrease
/// from one row to the next (every path through row `i` passed row
/// `i − 1`), so a lane whose *first* row minimum already exceeds its
/// limit is abandoned at once. Pass `f64::INFINITY` for a candidate that
/// must not abandon. Features must be finite (see
/// [`SegmentFeatures::push`]).
///
/// `out` is cleared and refilled with one [`ScreenOutcome`] per
/// candidate, index-aligned with `candidates`.
///
/// # Panics
///
/// Panics when `limits.len()` differs from `candidates.len()`.
pub fn dtw_screen_lockstep(
    candidates: &[&SegmentFeatures],
    measured: &SegmentFeatures,
    gap_penalty_per_second: f64,
    limits: &[f64],
    scratch: &mut DtwScratch,
    out: &mut Vec<ScreenOutcome>,
) {
    assert_eq!(limits.len(), candidates.len(), "one limit per candidate");
    let penalty = gap_penalty_per_second.max(0.0);
    out.clear();
    out.resize(candidates.len(), ScreenOutcome::Infeasible);
    let m = measured.len();
    if m == 0 {
        return;
    }
    let DtwScratch { lockstep, live, .. } = scratch;
    if lockstep.len() < 2 * candidates.len() * m {
        lockstep.resize(2 * candidates.len() * m, f64::INFINITY);
    }
    let m_dur = &measured.dur[..m];
    let left_penalty = |j: usize| penalty * m_dur[j];

    // Row 0 of every lane: the free subsequence start.
    live.clear();
    for (k, cand) in candidates.iter().enumerate() {
        if cand.is_empty() {
            continue; // Infeasible
        }
        let row0 = &mut lockstep[2 * k * m..2 * k * m + m];
        let cost = segment_row_costs(cand, 0, measured);
        let mut row_min = f64::INFINITY;
        for (j, slot) in row0.iter_mut().enumerate() {
            let v = cost(j);
            *slot = v;
            if v < row_min {
                row_min = v;
            }
        }
        if cand.len() == 1 {
            out[k] = finish_lane(row0, limits[k]);
        } else if row_min > limits[k] {
            out[k] = ScreenOutcome::Abandoned { lower_bound: row_min };
        } else {
            live.push(k);
        }
    }

    // Advance every live lane one row per round, two lanes per pass over
    // the measured columns; an odd lane left over advances alone. `live`
    // stays in ascending lane order: each round compacts it in place, so
    // the pairs regroup as lanes finish.
    let mut i = 1usize;
    while !live.is_empty() {
        let mut kept = 0;
        let mut p = 0;
        while p + 1 < live.len() {
            let (a, b) = (live[p], live[p + 1]);
            let (head, tail) = lockstep.split_at_mut(2 * b * m);
            let (prev_a, cur_a) = lane_rows(&mut head[2 * a * m..], m, i);
            let (prev_b, cur_b) = lane_rows(tail, m, i);
            let [min_a, min_b] = advance_rows(
                [prev_a, prev_b],
                [&mut *cur_a, &mut *cur_b],
                [None, None],
                [penalty * candidates[a].dur[i], penalty * candidates[b].dur[i]],
                [
                    segment_row_costs(candidates[a], i, measured),
                    segment_row_costs(candidates[b], i, measured),
                ],
                left_penalty,
            );
            for (k, row_min, cur) in [(a, min_a, &*cur_a), (b, min_b, &*cur_b)] {
                if lane_runs_on(row_min, cur, limits[k], i + 1 == candidates[k].len(), &mut out[k])
                {
                    live[kept] = k;
                    kept += 1;
                }
            }
            p += 2;
        }
        if p < live.len() {
            let k = live[p];
            let (prev, cur) = lane_rows(&mut lockstep[2 * k * m..], m, i);
            let [row_min] = advance_rows(
                [prev],
                [&mut *cur],
                [None],
                [penalty * candidates[k].dur[i]],
                [segment_row_costs(candidates[k], i, measured)],
                left_penalty,
            );
            if lane_runs_on(row_min, cur, limits[k], i + 1 == candidates[k].len(), &mut out[k]) {
                live[kept] = k;
                kept += 1;
            }
        }
        live.truncate(kept);
        i += 1;
    }
}

/// The rows of a lane's two-row arena (the front `2m` values of `arena`)
/// when it advances to row `i`: `(prev, cur)`, row `i` living in the half
/// `i % 2`.
#[inline(always)]
fn lane_rows(arena: &mut [f64], m: usize, i: usize) -> (&[f64], &mut [f64]) {
    let (half_a, half_b) = arena[..2 * m].split_at_mut(m);
    if i % 2 == 1 {
        (half_a, half_b)
    } else {
        (half_b, half_a)
    }
}

/// Settles a lane after a row `cur` with minimum `row_min`: records the
/// abandon, or the finished lane's outcome on its `last_row`, in `out`;
/// returns `true` when the lane runs on.
#[inline(always)]
fn lane_runs_on(
    row_min: f64,
    cur: &[f64],
    limit: f64,
    last_row: bool,
    out: &mut ScreenOutcome,
) -> bool {
    if row_min > limit {
        *out = ScreenOutcome::Abandoned { lower_bound: row_min };
        false
    } else if last_row {
        *out = finish_lane(cur, limit);
        false
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseProfile;

    fn assert_monotone(path: &[(usize, usize)]) {
        for w in path.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
            let step = (w[1].0 - w[0].0) + (w[1].1 - w[0].1);
            assert!((1..=2).contains(&step), "invalid step {:?} -> {:?}", w[0], w[1]);
        }
    }

    /// The compare-select segment cost equals the `f64::max`/`f64::min`
    /// form it replaced on finite operands, bit for bit, except that a
    /// zero gap is always `+0.0` (the old form could return `−0.0`).
    #[test]
    fn segment_cost_matches_the_max_min_form_on_finite_operands() {
        let old = |r_lo: f64, r_hi: f64, r_dur: f64, m_lo: f64, m_hi: f64, m_dur: f64| {
            (r_lo - m_hi).max(m_lo - r_hi).max(0.0) * r_dur.min(m_dur)
        };
        // Signed zeros, equal, touching, overlapping and nested ranges,
        // tiny and large magnitudes.
        let bounds = [-0.0, 0.0, 1e-300, -1e-300, 0.5, 1.0, -1.0, 2.0, 3.0, std::f64::consts::TAU];
        let durations = [1e-3, 0.02, 0.02, 0.5, 1e6];
        let mut checked = 0usize;
        for &r_lo in &bounds {
            for &r_hi in &bounds {
                for &m_lo in &bounds {
                    for &m_hi in &bounds {
                        for (&r_dur, &m_dur) in durations.iter().zip(durations.iter().rev()) {
                            let want = old(r_lo, r_hi, r_dur, m_lo, m_hi, m_dur);
                            let got = segment_cost(r_lo, r_hi, r_dur, m_lo, m_hi, m_dur);
                            assert_ne!(got.to_bits(), (-0.0f64).to_bits());
                            if want == 0.0 {
                                assert_eq!(got.to_bits(), 0.0f64.to_bits());
                            } else {
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "r [{r_lo}, {r_hi}] x {r_dur}, m [{m_lo}, {m_hi}] x {m_dur}"
                                );
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, bounds.len().pow(4) * durations.len());
        // The named cases, spelled out: equal and touching ranges cost
        // nothing, a nested range costs nothing, disjoint ranges pay the
        // gap times the shorter duration.
        assert_eq!(segment_cost(1.0, 2.0, 0.1, 1.0, 2.0, 0.2), 0.0);
        assert_eq!(segment_cost(1.0, 2.0, 0.1, 2.0, 3.0, 0.2), 0.0);
        assert_eq!(segment_cost(0.0, 3.0, 0.1, 1.0, 2.0, 0.2), 0.0);
        assert_eq!(segment_cost(3.0, 4.0, 0.5, 1.0, 2.0, 0.25), 0.25);
        assert_eq!(segment_cost(1.0, 2.0, 0.25, 3.0, 4.0, 0.5), 0.25);
    }

    #[test]
    fn identical_sequences_align_diagonally_with_zero_cost() {
        let s = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0];
        let r = dtw_full(&s, &s).unwrap();
        assert!(r.cost.abs() < 1e-12);
        assert_eq!(r.path.len(), s.len());
        for (k, &(i, j)) in r.path.iter().enumerate() {
            assert_eq!(i, k);
            assert_eq!(j, k);
        }
    }

    #[test]
    fn time_stretched_sequence_still_matches_with_low_cost() {
        // The measured profile is the reference with every sample doubled
        // (movement at half speed). DTW absorbs the stretch at zero cost.
        let reference = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        let measured: Vec<f64> = reference.iter().flat_map(|&v| [v, v]).collect();
        let r = dtw_full(&reference, &measured).unwrap();
        assert!(r.cost.abs() < 1e-12);
        assert_monotone(&r.path);
    }

    #[test]
    fn path_endpoints_cover_both_sequences_in_full_mode() {
        let a = vec![0.0, 0.5, 1.0, 0.5];
        let b = vec![0.0, 1.0, 0.0];
        let r = dtw_full(&a, &b).unwrap();
        assert_eq!(*r.path.first().unwrap(), (0, 0));
        assert_eq!(*r.path.last().unwrap(), (a.len() - 1, b.len() - 1));
        assert_monotone(&r.path);
    }

    #[test]
    fn empty_inputs_give_none() {
        assert!(dtw_full(&[], &[1.0]).is_none());
        assert!(dtw_full(&[1.0], &[]).is_none());
        assert!(dtw_subsequence(&[], &[]).is_none());
    }

    #[test]
    fn subsequence_finds_embedded_pattern() {
        // A V-shaped pattern embedded in the middle of a longer noisy-ish
        // sequence; subsequence DTW must locate it.
        let pattern = vec![3.0, 2.0, 1.0, 0.5, 1.0, 2.0, 3.0];
        let mut haystack = vec![5.0; 20];
        let offset = 8;
        for (k, &v) in pattern.iter().enumerate() {
            haystack[offset + k] = v;
        }
        let r = dtw_subsequence(&pattern, &haystack).unwrap();
        assert!(r.cost < 1e-9);
        let matched = r.matched_range(0, pattern.len()).unwrap();
        assert_eq!(matched, offset..offset + pattern.len());
        assert_monotone(&r.path);
    }

    #[test]
    fn subsequence_keeps_first_of_equally_good_matches() {
        // The pattern appears twice with identical (zero) cost; the seed's
        // `Iterator::min_by` endpoint selection kept the FIRST minimal
        // column, so the left occurrence must win.
        let pattern = vec![3.0, 1.0, 3.0];
        let mut haystack = vec![5.0; 4];
        haystack.extend_from_slice(&pattern);
        haystack.extend_from_slice(&[5.0; 4]);
        haystack.extend_from_slice(&pattern);
        haystack.extend_from_slice(&[5.0; 4]);
        let r = dtw_subsequence(&pattern, &haystack).unwrap();
        assert!(r.cost < 1e-12);
        let matched = r.matched_range(0, pattern.len()).unwrap();
        assert_eq!(matched, 4..4 + pattern.len(), "must match the first occurrence");
    }

    #[test]
    fn subsequence_tolerates_stretch_of_the_embedded_pattern() {
        let pattern = vec![3.0, 2.0, 1.0, 0.5, 1.0, 2.0, 3.0];
        let mut haystack = vec![6.0; 10];
        // Embed a stretched copy (each value twice).
        for &v in &pattern {
            haystack.push(v);
            haystack.push(v);
        }
        haystack.extend(std::iter::repeat_n(6.0, 10));
        let r = dtw_subsequence(&pattern, &haystack).unwrap();
        assert!(r.cost < 1e-9);
        let matched = r.matched_range(0, pattern.len()).unwrap();
        assert!(matched.start >= 10 && matched.end <= 10 + 2 * pattern.len());
    }

    #[test]
    fn matched_indices_and_range_queries() {
        let r = DtwResult { cost: 0.0, path: vec![(0, 0), (1, 1), (1, 2), (2, 3)] };
        assert_eq!(r.matched_indices(1), vec![1, 2]);
        assert_eq!(r.matched_range(1, 2), Some(1..3));
        assert_eq!(r.matched_range(0, 3), Some(0..4));
        assert_eq!(r.matched_range(5, 6), None);
    }

    #[test]
    fn matched_ranges_agrees_with_per_segment_queries() {
        let r = DtwResult { cost: 0.0, path: vec![(0, 0), (1, 1), (1, 2), (3, 3), (3, 4)] };
        let all = r.matched_ranges();
        assert_eq!(all.len(), 4);
        for (i, range) in all.iter().enumerate() {
            assert_eq!(*range, r.matched_range(i, i + 1), "segment {i}");
        }
        assert_eq!(all[2], None);
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_runs() {
        let mut scratch = DtwScratch::new();
        let pairs: Vec<(Vec<f64>, Vec<f64>)> = vec![
            ((0..30).map(|i| (i as f64 * 0.3).sin() + 1.5).collect(), vec![1.0; 40]),
            (vec![2.0, 1.0, 0.5, 1.0, 2.0], (0..12).map(|i| i as f64 * 0.5).collect()),
            ((0..8).map(|i| i as f64).collect(), (0..50).map(|i| (i % 7) as f64).collect()),
        ];
        for (a, b) in &pairs {
            for subsequence in [false, true] {
                let cost = dtw_values_into(a, b, subsequence, &mut scratch).unwrap();
                let fresh = if subsequence {
                    dtw_subsequence(a, b).unwrap()
                } else {
                    dtw_full(a, b).unwrap()
                };
                assert_eq!(cost, fresh.cost);
                assert_eq!(scratch.path(), fresh.path.as_slice());
            }
        }
    }

    #[test]
    fn early_abandon_only_cuts_losing_alignments() {
        // Offset the haystack so no segment ranges overlap: the optimal
        // cost must be strictly positive for the bound to bite.
        let a = [0.0, 1.0, 2.0, 1.0, 0.0];
        let b = [3.0, 4.0, 5.0, 4.0, 3.0, 3.5];
        let sr = {
            let pa: Vec<(f64, f64)> = a.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            SegmentedProfile::build(&PhaseProfile::from_pairs(&pa), 2)
        };
        let sm = {
            let pb: Vec<(f64, f64)> = b.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
            SegmentedProfile::build(&PhaseProfile::from_pairs(&pb), 2)
        };
        let mut scratch = DtwScratch::new();
        let exact = dtw_segmented_into(&sr, &sm, true, 0.5, None, &mut scratch).expect("aligns");
        // A bound above the true cost must not abandon…
        let kept = dtw_segmented_into(&sr, &sm, true, 0.5, Some(exact + 1.0), &mut scratch);
        assert_eq!(kept, Some(exact));
        // …a bound below it must.
        let cut = dtw_segmented_into(&sr, &sm, true, 0.5, Some(exact / 2.0), &mut scratch);
        assert_eq!(cut, None);
    }

    #[test]
    fn segmented_dtw_aligns_same_profile_with_zero_cost() {
        let pairs: Vec<(f64, f64)> =
            (0..60).map(|i| (i as f64 * 0.05, 3.0 + (i as f64 * 0.1).sin())).collect();
        let p = PhaseProfile::from_pairs(&pairs);
        let sp = SegmentedProfile::build(&p, 5);
        let r = dtw_segmented(&sp, &sp, false).unwrap();
        assert!(r.cost.abs() < 1e-12);
        assert_monotone(&r.path);
    }

    #[test]
    fn segmented_dtw_is_cheaper_than_full_but_consistent() {
        // Build a slow V and a fast V; both DTW variants should align the
        // minima to each other.
        let make = |n: usize, dt: f64| {
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let t = i as f64 * dt;
                    let centre = n as f64 * dt / 2.0;
                    (t, 0.5 + (t - centre).abs())
                })
                .collect();
            PhaseProfile::from_pairs(&pairs)
        };
        let reference = make(60, 0.05);
        let measured = make(90, 0.05); // slower sweep: wider V
        let r_full = dtw_full(&reference.phases(), &measured.phases()).unwrap();
        let sr = SegmentedProfile::build(&reference, 5);
        let sm = SegmentedProfile::build(&measured, 5);
        let r_seg = dtw_segmented(&sr, &sm, false).unwrap();
        assert!(sr.len() < reference.len());
        assert!(r_seg.path.len() < r_full.path.len());
        // The reference nadir (segment) maps near the measured nadir.
        let ref_nadir_seg = sr
            .segments()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.min_phase.partial_cmp(&b.1.min_phase).unwrap())
            .unwrap()
            .0;
        let matched = r_seg.matched_range(ref_nadir_seg, ref_nadir_seg + 1).unwrap();
        let measured_centre_seg = sm.len() / 2;
        assert!(
            (matched.start as i64 - measured_centre_seg as i64).abs() <= 2,
            "nadir segment should map near the centre: {matched:?} vs {measured_centre_seg}"
        );
    }

    #[test]
    fn segmented_subsequence_locates_vzone_region() {
        // Reference: one clean V. Measured: flat, V, flat.
        let v_pairs: Vec<(f64, f64)> =
            (0..40).map(|i| (i as f64 * 0.05, 0.5 + (i as f64 * 0.05 - 1.0).abs())).collect();
        let reference = PhaseProfile::from_pairs(&v_pairs);
        let mut measured_pairs = Vec::new();
        for i in 0..30 {
            measured_pairs.push((i as f64 * 0.05, 4.0));
        }
        for i in 0..40 {
            measured_pairs.push((1.5 + i as f64 * 0.05, 0.5 + (i as f64 * 0.05 - 1.0).abs()));
        }
        for i in 0..30 {
            measured_pairs.push((3.5 + i as f64 * 0.05, 4.0));
        }
        let measured = PhaseProfile::from_pairs(&measured_pairs);
        let sr = SegmentedProfile::build(&reference, 5);
        let sm = SegmentedProfile::build(&measured, 5);
        let r = dtw_segmented(&sr, &sm, true).unwrap();
        let matched_segs = r.matched_range(0, sr.len()).unwrap();
        let sample_range = sm.sample_range(matched_segs);
        // The matched sample range must be (mostly) inside the embedded V.
        assert!(sample_range.start >= 25, "start = {}", sample_range.start);
        assert!(sample_range.end <= 76, "end = {}", sample_range.end);
    }

    /// The first `j` segments of a representation, as the batch kernel
    /// would see them.
    fn features_prefix(f: &SegmentFeatures, j: usize) -> SegmentFeatures {
        SegmentFeatures { lo: f.lo[..j].to_vec(), hi: f.hi[..j].to_vec(), dur: f.dur[..j].to_vec() }
    }

    fn synthetic_v_features(samples: usize, dt: f64, center_s: f64) -> SegmentFeatures {
        let pairs: Vec<(f64, f64)> = (0..samples)
            .map(|i| {
                let t = i as f64 * dt;
                (t, rfid_phys::wrap_phase((t - center_s).abs() * 2.0 + 0.4))
            })
            .collect();
        let profile = PhaseProfile::from_pairs(&pairs);
        SegmentFeatures::from_segmented(&SegmentedProfile::build(&profile, 5))
    }

    #[test]
    fn incremental_cost_is_bit_identical_to_batch_at_every_prefix() {
        let reference = synthetic_v_features(60, 0.02, 0.6);
        let measured = synthetic_v_features(300, 0.017, 2.6);
        assert!(reference.len() > 1 && measured.len() > reference.len());
        let mut scratch = DtwScratch::new();
        for penalty in [0.0, 0.5, 2.0] {
            let mut inc = IncrementalDtwCost::new();
            for j in 0..measured.len() {
                let got = inc.append(
                    &reference,
                    penalty,
                    measured.lo[j],
                    measured.hi[j],
                    measured.dur[j],
                );
                assert_eq!(inc.appended(), j + 1);
                let prefix = features_prefix(&measured, j + 1);
                let want = dtw_segmented_features_into(
                    &reference,
                    &prefix,
                    true,
                    penalty,
                    None,
                    &mut scratch,
                );
                assert_eq!(
                    want.map(f64::to_bits),
                    got.map(f64::to_bits),
                    "penalty {penalty}, prefix {}",
                    j + 1
                );
                assert_eq!(got.map(f64::to_bits), inc.best().map(f64::to_bits));
            }
        }
    }

    #[test]
    fn incremental_cost_handles_single_segment_reference() {
        let mut reference = SegmentFeatures::default();
        reference.push(1.0, 2.0, 0.1);
        let measured = synthetic_v_features(120, 0.02, 1.2);
        let mut scratch = DtwScratch::new();
        let mut inc = IncrementalDtwCost::new();
        for j in 0..measured.len() {
            let got = inc.append(&reference, 0.5, measured.lo[j], measured.hi[j], measured.dur[j]);
            let prefix = features_prefix(&measured, j + 1);
            let want =
                dtw_segmented_features_into(&reference, &prefix, true, 0.5, None, &mut scratch);
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "prefix {}", j + 1);
        }
    }

    #[test]
    fn incremental_cost_reset_allows_reuse_and_empty_reference_is_none() {
        let reference = synthetic_v_features(60, 0.02, 0.6);
        let measured = synthetic_v_features(150, 0.02, 1.5);
        let mut inc = IncrementalDtwCost::new();
        assert_eq!(inc.best(), None);
        for j in 0..measured.len() {
            inc.append(&reference, 0.5, measured.lo[j], measured.hi[j], measured.dur[j]);
        }
        let first = inc.best();
        assert!(first.is_some());
        inc.reset();
        assert_eq!(inc.best(), None);
        assert_eq!(inc.appended(), 0);
        for j in 0..measured.len() {
            inc.append(&reference, 0.5, measured.lo[j], measured.hi[j], measured.dur[j]);
        }
        assert_eq!(inc.best().map(f64::to_bits), first.map(f64::to_bits), "reset must replay");
        // An empty reference can never produce a cost.
        let mut empty = IncrementalDtwCost::new();
        assert_eq!(empty.append(&SegmentFeatures::default(), 0.5, 0.0, 1.0, 0.1), None);
    }
}
