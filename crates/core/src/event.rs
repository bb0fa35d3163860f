//! Campaign boundary markers, the idle fast-forward tripwire, and the
//! retired engine selector.
//!
//! The simulation has one core ([`crate::Simulation`]'s two-way
//! demand/scrub merge with idle skip-ahead). Fault-campaign boundaries
//! (SEU window closing, bursts firing, intermittent periods) are emitted
//! as telemetry markers at the end of each advance segment; they are a
//! pure function of the spec and the segment window, so no marker state
//! needs checkpointing.

use std::sync::atomic::{AtomicBool, Ordering};

use pcm_memsim::{CampaignSpec, SimTime};

/// Former simulation-core selector. There is one core now, so every
/// value behaves identically; kept only so existing callers still build.
#[deprecated(note = "there is one simulation core; the selector is ignored")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Formerly the cadence-grid loop.
    Stepped,
    /// Formerly the priority-queue core.
    Event,
}

/// Recurring intermittent-fault boundaries are capped at this many
/// markers per advance segment (telemetry-only; the injector itself is
/// exact regardless).
const MAX_INTERMITTENT_MARKERS: usize = 1024;

/// The fault-campaign boundaries crossed in the half-open window
/// `(after, upto]`, in time order. A pure function of the spec, so any
/// segmentation of a run emits the same markers in the same order — no
/// marker state to checkpoint.
pub(crate) fn campaign_boundaries(
    spec: &CampaignSpec,
    after: SimTime,
    upto: SimTime,
) -> Vec<(f64, &'static str)> {
    let mut out: Vec<(f64, &'static str)> = Vec::new();
    let (lo, hi) = (after.secs(), upto.secs());
    let mut push = |t: f64, label: &'static str| {
        if t > lo && t <= hi {
            out.push((t, label));
        }
    };
    if let Some(seu) = &spec.seu {
        push(seu.window_s, "seu_window_end");
    }
    if let Some(burst) = &spec.burst {
        push(burst.at_s, "burst");
    }
    if let Some(im) = &spec.intermittent {
        if im.period_s > 0.0 {
            let mut n = 0usize;
            // First period boundary strictly after `lo`.
            let mut k = (lo / im.period_s).floor() as u64 + 1;
            loop {
                let t = k as f64 * im.period_s;
                if t > hi || n >= MAX_INTERMITTENT_MARKERS {
                    break;
                }
                push(t, "intermittent_period");
                k += 1;
                n += 1;
            }
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Test-only tripwire: when set, the idle fast-forward overshoots by one
/// slot — it skips a slot the policy should have been consulted at. The
/// differential harness flips this to prove it detects a skewed
/// fast-forward rather than vacuously passing.
pub(crate) static SKEW_FAST_FORWARD: AtomicBool = AtomicBool::new(false);

/// Enables/disables the deliberate fast-forward skew. Test-only.
#[doc(hidden)]
pub fn set_skewed_fast_forward_for_test(on: bool) {
    SKEW_FAST_FORWARD.store(on, Ordering::Relaxed);
}

pub(crate) fn skew_fast_forward() -> bool {
    SKEW_FAST_FORWARD.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_cover_half_open_window() {
        let spec: CampaignSpec =
            "seed=1;seu=lines:4,count:2,window:100;burst=lines:2,bits:3,at:50;\
             intermittent=lines:1,cells:2,period:30"
                .parse()
                .expect("valid spec");
        let all = campaign_boundaries(&spec, SimTime::ZERO, SimTime::from_secs(100.0));
        let times: Vec<f64> = all.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![30.0, 50.0, 60.0, 90.0, 100.0]);
        // Exactly-at-`after` boundaries belong to the previous segment.
        let tail = campaign_boundaries(&spec, SimTime::from_secs(50.0), SimTime::from_secs(100.0));
        assert!(tail.iter().all(|(t, _)| *t > 50.0));
        // Split segments partition the straight-run marker set.
        let head = campaign_boundaries(&spec, SimTime::ZERO, SimTime::from_secs(50.0));
        let mut joined = head;
        joined.extend(tail);
        assert_eq!(joined, all);
    }
}
