//! # flowtune-tuner
//!
//! The online auto-tuning approach of §4–5: assess the usefulness of
//! every candidate index from the *historical* dataflow workload, build
//! the ones whose gain turns positive, delete the ones whose gain turns
//! non-positive.
//!
//! The gain of an index at time `t` (Eq. 3) is
//!
//! ```text
//! g(idx, t)  = α · Mc · gt(idx, t)  +  (1 − α) · gm(idx, t)
//! gt(idx, t) = Σ_i δ(d_i, t) · dc(ΔT_i) · gtd(idx, d_i)  −  ti(idx)       (Eq. 5)
//! gm(idx, t) = Σ_i δ(d_i, t) · dc(ΔT_i) · Mc · gmd(idx, d_i)
//!              − (Mc · mi(idx) + st(idx, W))                              (Eq. 4)
//! dc(t)      = e^{−t/D}
//! ```
//!
//! where `gtd`/`gmd` are the per-dataflow time/money gains of the index
//! (estimated in [`estimate`]), `δ` restricts to dataflows inside the
//! sliding window `[t−W, t]` plus the currently queued one, `dc` fades
//! historical gains, and `ti`/`mi`/`st` are the index's remaining build
//! time, build cost and storage cost over the window.

pub mod adaptive;
pub mod estimate;
pub mod gain;
pub mod history;
pub mod rank;
pub mod tuning;

pub use adaptive::AdaptiveFading;
pub use estimate::dataflow_index_gains;
pub use gain::{GainModel, IndexGains};
pub use history::{History, HistoryEntry};
pub use rank::rank_indexes;
pub use tuning::{OnlineTuner, TuningDecision};
