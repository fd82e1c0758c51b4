//! Consistent `SIM_*` environment-variable parsing.
//!
//! Every layer of the stack reads configuration from `SIM_*` variables
//! (`SIM_JOBS`, `SIM_SHARDS`, `SIM_STORE`, ...). Historically each
//! crate parsed them ad hoc — one compared against `"1"`, another accepted
//! `"0|off|false|no"` — so the same spelling meant different things in
//! different places. These two helpers are the single source of truth:
//!
//! - [`env_flag`] — boolean switches. `1`/`true`/`on`/`yes` enable,
//!   `0`/`false`/`off`/`no` disable (ASCII case-insensitive, surrounding
//!   whitespace ignored); anything else — including unset and empty —
//!   yields the provided default.
//! - [`env_val`] — typed values via [`std::str::FromStr`]. Unset, empty,
//!   and unparsable values all yield `None`, so a typo degrades to the
//!   built-in default instead of a panic deep in a worker thread.
//!
//! The full variable catalog is documented in the repository README
//! ("Environment variables").

/// Parse the boolean switch `name`, falling back to `default` when the
/// variable is unset, empty, or not one of the recognized spellings.
///
/// Recognized (case-insensitive, trimmed): `1`, `true`, `on`, `yes` →
/// `true`; `0`, `false`, `off`, `no` → `false`.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "yes" => true,
            "0" | "false" | "off" | "no" => false,
            _ => default,
        },
        Err(_) => default,
    }
}

/// Parse the typed value `name`. Returns `None` when the variable is
/// unset, empty (after trimming), or fails to parse as `T`.
pub fn env_val<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    let v = v.trim();
    if v.is_empty() {
        return None;
    }
    v.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `std::env::set_var` is process-global; serialize env-mutating tests.
    fn env_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn flag_spellings() {
        let _g = env_lock();
        for (v, want) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            ("Yes", true),
            (" on ", true),
            ("0", false),
            ("false", false),
            ("OFF", false),
            ("no", false),
        ] {
            std::env::set_var("SIM_TEST_FLAG", v);
            assert_eq!(env_flag("SIM_TEST_FLAG", !want), want, "value {v:?}");
        }
        std::env::remove_var("SIM_TEST_FLAG");
    }

    #[test]
    fn flag_fallbacks() {
        let _g = env_lock();
        std::env::remove_var("SIM_TEST_FLAG_UNSET");
        assert!(env_flag("SIM_TEST_FLAG_UNSET", true));
        assert!(!env_flag("SIM_TEST_FLAG_UNSET", false));
        std::env::set_var("SIM_TEST_FLAG_UNSET", "");
        assert!(env_flag("SIM_TEST_FLAG_UNSET", true));
        std::env::set_var("SIM_TEST_FLAG_UNSET", "maybe");
        assert!(!env_flag("SIM_TEST_FLAG_UNSET", false));
        std::env::remove_var("SIM_TEST_FLAG_UNSET");
    }

    #[test]
    fn typed_values() {
        let _g = env_lock();
        std::env::set_var("SIM_TEST_VAL", " 42 ");
        assert_eq!(env_val::<usize>("SIM_TEST_VAL"), Some(42));
        assert_eq!(env_val::<String>("SIM_TEST_VAL"), Some("42".to_string()));
        std::env::set_var("SIM_TEST_VAL", "not-a-number");
        assert_eq!(env_val::<usize>("SIM_TEST_VAL"), None);
        std::env::set_var("SIM_TEST_VAL", "");
        assert_eq!(env_val::<String>("SIM_TEST_VAL"), None);
        std::env::remove_var("SIM_TEST_VAL");
        assert_eq!(env_val::<u64>("SIM_TEST_VAL"), None);
    }
}
