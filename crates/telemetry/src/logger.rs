//! Leveled stderr logging for experiment drivers.
//!
//! Progress chatter belongs on stderr so stdout can stay exclusively
//! machine-readable (tables, CSV). The level comes from `SAMO_LOG`:
//! `quiet` (nothing), `info` (default), `debug`.
//!
//! Use the [`crate::log_info!`] / [`crate::log_debug!`] macros; both
//! format lazily, so a disabled level pays one atomic load.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Log verbosity, ordered so `level as u8` comparisons work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LogLevel {
    Quiet = 0,
    Info = 1,
    Debug = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

pub fn level() -> LogLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => LogLevel::Quiet,
        1 => LogLevel::Info,
        _ => LogLevel::Debug,
    }
}

pub fn set_level(l: LogLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Parse a `SAMO_LOG` value; unknown strings mean "leave the default".
pub fn parse_level(s: &str) -> Option<LogLevel> {
    match s.to_ascii_lowercase().as_str() {
        "quiet" | "off" | "0" => Some(LogLevel::Quiet),
        "info" | "1" => Some(LogLevel::Info),
        "debug" | "2" => Some(LogLevel::Debug),
        _ => None,
    }
}

/// Read `SAMO_LOG` once per process (idempotent).
pub fn init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Some(l) = std::env::var("SAMO_LOG").ok().and_then(|v| parse_level(&v)) {
            set_level(l);
        }
    });
}

#[inline]
pub fn enabled_at(l: LogLevel) -> bool {
    level() >= l
}

/// Implementation detail of the logging macros.
pub fn log_at(l: LogLevel, args: std::fmt::Arguments<'_>) {
    if enabled_at(l) {
        eprintln!("{args}");
    }
}

/// Log a line to stderr at `info` level (shown unless `SAMO_LOG=quiet`).
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::logger::enabled_at($crate::logger::LogLevel::Info) {
            $crate::logger::log_at($crate::logger::LogLevel::Info, ::std::format_args!($($arg)*));
        }
    };
}

/// Log a warning to stderr. Warnings ride the `info` threshold (a
/// misconfiguration is at least as important as progress chatter) with
/// a `warning:` prefix, so only `SAMO_LOG=quiet` silences them.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::logger::enabled_at($crate::logger::LogLevel::Info) {
            $crate::logger::log_at(
                $crate::logger::LogLevel::Info,
                ::std::format_args!("warning: {}", ::std::format_args!($($arg)*)),
            );
        }
    };
}

/// Log a line to stderr at `debug` level (shown only with `SAMO_LOG=debug`).
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::logger::enabled_at($crate::logger::LogLevel::Debug) {
            $crate::logger::log_at($crate::logger::LogLevel::Debug, ::std::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Quiet < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert_eq!(parse_level("QUIET"), Some(LogLevel::Quiet));
        assert_eq!(parse_level("info"), Some(LogLevel::Info));
        assert_eq!(parse_level("debug"), Some(LogLevel::Debug));
        assert_eq!(parse_level("verbose"), None);
    }

    #[test]
    fn set_level_gates_enabled_at() {
        let _guard = crate::test_lock();
        let was = level();
        set_level(LogLevel::Quiet);
        assert!(!enabled_at(LogLevel::Info));
        set_level(LogLevel::Debug);
        assert!(enabled_at(LogLevel::Info) && enabled_at(LogLevel::Debug));
        set_level(was);
    }
}
