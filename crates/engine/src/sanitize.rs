//! `DWS_SANITIZE` — opt-in release-mode runtime sanitizer flag.
//!
//! Debug builds cross-check every event-driven/predecoded fast path
//! against the exhaustive oracle it replaced (scheduler ring vs slab scan,
//! µop kernels vs per-lane interpreter, wake-path indexes vs slab scans,
//! fill mirror vs event queue). Those
//! checks compile out of release builds — exactly the builds chaos sweeps
//! run at. Setting `DWS_SANITIZE=1` (or `true`) re-enables them at runtime
//! so a release-mode fault-injection run still validates the fast paths it
//! stresses.
//!
//! Components read the flag once at construction (via [`enabled`], which
//! caches the environment lookup), so toggling the variable mid-process
//! affects only machines built afterwards.

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state cache: 0 = unresolved, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether the runtime sanitizer is enabled (`DWS_SANITIZE=1`/`true`).
///
/// The first call reads the environment; later calls (and races) hit the
/// cached answer.
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var("DWS_SANITIZE")
                .map(|v| {
                    let v = v.trim();
                    v == "1" || v.eq_ignore_ascii_case("true")
                })
                .unwrap_or(false);
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces the sanitizer on or off for this process, overriding the
/// environment (test hook; affects only components constructed after the
/// call).
pub fn force(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_overrides_and_sticks() {
        force(true);
        assert!(enabled());
        assert!(enabled(), "cached answer is stable");
        force(false);
        assert!(!enabled());
    }
}
