//! Named fail points for fault-injection testing.
//!
//! Production code threads calls like
//! `iim_faults::check("persist.fsync.err")` through its I/O hot paths;
//! each call names a *fail point*. With the `faults` cargo feature off
//! (the default) every call is an `#[inline(always)]` stub returning
//! [`None`] — the instrumentation costs nothing and holds no state, so
//! release binaries and benchmarks are unaffected.
//!
//! With `--features faults`, points are armed two ways:
//!
//! - **Environment**: `IIM_FAULTS=point=action[:count][,point=action[:count]...]`
//!   read once on first use — the way the e2e harness injects faults into
//!   a spawned daemon. Example:
//!   `IIM_FAULTS=persist.fsync.err=err:1,serve.write.stall=stall`.
//! - **Programmatic**: [`activate`] / [`clear`] / [`clear_all`] — the way
//!   in-process tests arm a point for one scenario. The registry is
//!   process-global, so tests that use it must serialize on a lock.
//!
//! An action is one of `err` (the instrumented site fails with an
//! injected I/O error), `partial` (a write persists only a prefix —
//! simulating a torn write at the crash boundary), or `stall` (the site
//! sleeps, simulating a dead peer or a saturated disk). An optional
//! `:count` arms the point for that many firings; without it the point
//! fires until cleared.
//!
//! The lineup of points wired through the workspace:
//!
//! | point | site | action semantics |
//! |---|---|---|
//! | `persist.append.partial_write` | delta append | `partial`: write half the record, skip fsync |
//! | `persist.fsync.err` | every snapshot fsync | `err`: the fsync reports failure |
//! | `serve.accept.err` | daemon accept loop | `err`: drop the accepted connection |
//! | `serve.write.stall` | response write | `stall`: sleep before writing |
//! | `registry.stage.validate` | `Registry::stage` validation | any: the staged snapshot is rejected |
//! | `registry.stage.temp_write` | `Registry::stage` temp-file write | any: the durable temp write fails (no litter) |
//! | `registry.swap.rename` | hot swap's write section | any: the publish rename fails; the old model keeps serving |

/// What an armed fail point tells the instrumented site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with an injected error.
    Err,
    /// Perform only part of the operation (a torn write).
    Partial,
    /// Stall: sleep at the instrumented site before proceeding.
    Stall,
}

#[cfg(feature = "faults")]
mod imp {
    use super::FaultAction;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    struct Entry {
        action: FaultAction,
        /// `None` = fire forever; `Some(n)` = fire n more times.
        remaining: Option<u32>,
    }

    fn registry() -> &'static Mutex<HashMap<String, Entry>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(spec) = std::env::var("IIM_FAULTS") {
                for (point, entry) in parse_spec(&spec) {
                    map.insert(point, entry);
                }
            }
            Mutex::new(map)
        })
    }

    /// Parse `point=action[:count]` clauses; malformed clauses are
    /// skipped (a fault harness must never turn into its own fault).
    fn parse_spec(spec: &str) -> Vec<(String, Entry)> {
        spec.split(',')
            .filter_map(|clause| {
                let clause = clause.trim();
                let (point, rhs) = clause.split_once('=')?;
                let (action, count) = match rhs.split_once(':') {
                    Some((a, c)) => (a, Some(c.parse::<u32>().ok()?)),
                    None => (rhs, None),
                };
                let action = match action {
                    "err" => FaultAction::Err,
                    "partial" => FaultAction::Partial,
                    "stall" => FaultAction::Stall,
                    _ => return None,
                };
                Some((
                    point.to_string(),
                    Entry {
                        action,
                        remaining: count,
                    },
                ))
            })
            .collect()
    }

    pub fn check(point: &str) -> Option<FaultAction> {
        let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
        let entry = map.get_mut(point)?;
        let action = entry.action;
        if let Some(n) = &mut entry.remaining {
            *n -= 1;
            if *n == 0 {
                map.remove(point);
            }
        }
        Some(action)
    }

    pub fn activate(point: &str, action: FaultAction, count: Option<u32>) {
        if count == Some(0) {
            return;
        }
        registry().lock().unwrap_or_else(|e| e.into_inner()).insert(
            point.to_string(),
            Entry {
                action,
                remaining: count,
            },
        );
    }

    pub fn clear(point: &str) {
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(point);
    }

    pub fn clear_all() {
        registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Mutex;

        // The registry is process-global; serialize every test on one lock.
        static SERIAL: Mutex<()> = Mutex::new(());

        #[test]
        fn unarmed_points_return_none() {
            let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            clear_all();
            assert_eq!(check("nothing.armed.here"), None);
        }

        #[test]
        fn counted_points_fire_exactly_count_times() {
            let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            clear_all();
            activate("p.counted", FaultAction::Err, Some(2));
            assert_eq!(check("p.counted"), Some(FaultAction::Err));
            assert_eq!(check("p.counted"), Some(FaultAction::Err));
            assert_eq!(check("p.counted"), None);
        }

        #[test]
        fn uncounted_points_fire_until_cleared() {
            let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            clear_all();
            activate("p.forever", FaultAction::Stall, None);
            for _ in 0..5 {
                assert_eq!(check("p.forever"), Some(FaultAction::Stall));
            }
            clear("p.forever");
            assert_eq!(check("p.forever"), None);
        }

        #[test]
        fn spec_parsing_accepts_the_documented_grammar() {
            let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            let parsed = parse_spec("a.b=err:1, c.d=stall ,bogus,e=nope,f=partial");
            let points: Vec<&str> = parsed.iter().map(|(p, _)| p.as_str()).collect();
            assert_eq!(points, ["a.b", "c.d", "f"]);
            assert_eq!(parsed[0].1.action, FaultAction::Err);
            assert_eq!(parsed[0].1.remaining, Some(1));
            assert_eq!(parsed[1].1.action, FaultAction::Stall);
            assert_eq!(parsed[1].1.remaining, None);
            assert_eq!(parsed[2].1.action, FaultAction::Partial);
        }

        #[test]
        fn zero_count_activation_is_a_no_op() {
            let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            clear_all();
            activate("p.zero", FaultAction::Err, Some(0));
            assert_eq!(check("p.zero"), None);
        }
    }
}

/// Consult a fail point. Returns the armed [`FaultAction`] (consuming
/// one firing if the point was armed with a count), or [`None`] when the
/// point is unarmed — which, with the `faults` feature off, is always.
#[cfg(feature = "faults")]
pub fn check(point: &str) -> Option<FaultAction> {
    imp::check(point)
}

/// Arm a fail point programmatically. `count` of `Some(n)` fires the
/// point `n` times then disarms it; `None` fires until [`clear`]ed.
/// Overwrites any previous arming of the same point.
#[cfg(feature = "faults")]
pub fn activate(point: &str, action: FaultAction, count: Option<u32>) {
    imp::activate(point, action, count)
}

/// Disarm one fail point.
#[cfg(feature = "faults")]
pub fn clear(point: &str) {
    imp::clear(point)
}

/// Disarm every fail point (including env-armed ones) — test hygiene
/// between scenarios.
#[cfg(feature = "faults")]
pub fn clear_all() {
    imp::clear_all()
}

/// Consult a fail point. Returns the armed [`FaultAction`] (consuming
/// one firing if the point was armed with a count), or [`None`] when the
/// point is unarmed — which, with the `faults` feature off, is always.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn check(_point: &str) -> Option<FaultAction> {
    None
}

/// Arm a fail point programmatically. `count` of `Some(n)` fires the
/// point `n` times then disarms it; `None` fires until [`clear`]ed.
/// Overwrites any previous arming of the same point.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn activate(_point: &str, _action: FaultAction, _count: Option<u32>) {}

/// Disarm one fail point.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn clear(_point: &str) {}

/// Disarm every fail point (including env-armed ones) — test hygiene
/// between scenarios.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn clear_all() {}
