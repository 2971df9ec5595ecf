//! One implementation of the process-wide execution knobs.
//!
//! `CAP_TENSOR_KERNEL`, `CAP_TENSOR_PRECISION` (this crate),
//! `CAP_TENSOR_FUSION` and `CAP_CNN_DAG` (`cap-cnn`) all follow the same
//! protocol: the environment variable is read **once**, at the first
//! [`Knob::selected`] call; a test/ablation override ([`Knob::force`])
//! wins over the cached resolution without touching it; after the
//! first call a read is one relaxed atomic load plus a cached read.
//! Each knob module keeps only its value enum, the enum's
//! [`KnobValue::name`]s, and its `auto` policy.
//!
//! An unrecognised value is **fatal**: the first resolve prints the
//! variable, the offending value and the accepted set to stderr and
//! exits with status 2. A typo therefore cannot silently run a
//! different kernel, precision or schedule than the one asked for.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The value set of a [`Knob`]: a small `Copy` enum.
pub trait KnobValue: Copy + PartialEq + 'static {
    /// Every value, in the order error messages list them.
    const VALUES: &'static [Self];

    /// Stable lower-case name, as the environment variable spells it.
    fn name(self) -> &'static str;
}

/// A process-wide selection read once from an environment variable.
pub struct Knob<T: KnobValue> {
    var: &'static str,
    /// The module's `auto` policy: maps the environment's request
    /// (`None` when the variable is unset, empty or `auto`) to the
    /// value the process runs with. Runs once, so it is also where a
    /// module publishes its gauge.
    policy: fn(Option<T>) -> T,
    /// Forced value: 0 = none, else 1 + its index in `T::VALUES`.
    forced: AtomicU8,
    selected: OnceLock<T>,
}

impl<T: KnobValue> Knob<T> {
    /// A knob reading `var`, resolved through `policy`.
    pub const fn new(var: &'static str, policy: fn(Option<T>) -> T) -> Self {
        Self {
            var,
            policy,
            forced: AtomicU8::new(0),
            selected: OnceLock::new(),
        }
    }

    /// The forced value if one is set, else the environment-driven
    /// selection (resolved on first use).
    #[inline]
    pub fn selected(&self) -> T {
        match self.forced.load(Ordering::Relaxed) {
            0 => *self.selected.get_or_init(|| self.resolve()),
            code => T::VALUES[code as usize - 1],
        }
    }

    /// Force every subsequent [`Knob::selected`] to `value`, or hand
    /// the choice back to the environment with `None`. Process-global:
    /// concurrent tests that depend on a specific value must serialize
    /// around it.
    pub fn force(&self, value: Option<T>) {
        let code = value.map_or(0, |v| {
            let index = T::VALUES
                .iter()
                .position(|&x| x == v)
                .expect("KnobValue::VALUES lists every value");
            index as u8 + 1
        });
        self.forced.store(code, Ordering::Relaxed);
    }

    /// Parse one raw value of the variable: `Ok(None)` for the empty
    /// string and `auto` (unless `auto` is itself a value name), the
    /// named value otherwise, and the fatal message for anything else.
    pub fn parse(&self, raw: &str) -> Result<Option<T>, String> {
        let value = raw.trim().to_ascii_lowercase();
        if let Some(&v) = T::VALUES.iter().find(|v| v.name() == value) {
            return Ok(Some(v));
        }
        if value.is_empty() || value == "auto" {
            return Ok(None);
        }
        let mut accepted = vec!["auto"];
        accepted.extend(T::VALUES.iter().map(|v| v.name()).filter(|&n| n != "auto"));
        Err(format!(
            "{}: unrecognised value {raw:?}; accepted: {}",
            self.var,
            accepted.join(", ")
        ))
    }

    fn resolve(&self) -> T {
        let request = match std::env::var(self.var) {
            Ok(raw) => self.parse(&raw).unwrap_or_else(|message| {
                eprintln!("{message}");
                std::process::exit(2)
            }),
            Err(_) => None,
        };
        (self.policy)(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Auto,
        On,
        Off,
    }

    impl KnobValue for Mode {
        const VALUES: &'static [Self] = &[Mode::Auto, Mode::On, Mode::Off];

        fn name(self) -> &'static str {
            match self {
                Mode::Auto => "auto",
                Mode::On => "on",
                Mode::Off => "off",
            }
        }
    }

    static KNOB: Knob<Mode> = Knob::new("CAP_TEST_KNOB_NEVER_SET", |req| req.unwrap_or(Mode::Auto));

    #[test]
    fn parse_accepts_names_and_auto_and_rejects_the_rest() {
        assert_eq!(KNOB.parse("on"), Ok(Some(Mode::On)));
        assert_eq!(KNOB.parse(" OFF "), Ok(Some(Mode::Off)));
        assert_eq!(KNOB.parse("auto"), Ok(Some(Mode::Auto)));
        assert_eq!(KNOB.parse(""), Ok(None));
        let message = KNOB.parse("bogus").unwrap_err();
        assert!(message.contains("CAP_TEST_KNOB_NEVER_SET"), "{message}");
        assert!(message.contains("\"bogus\""), "{message}");
        assert!(message.contains("auto, on, off"), "{message}");
    }

    #[test]
    fn force_wins_and_clears_back_to_the_policy() {
        assert_eq!(KNOB.selected(), Mode::Auto);
        KNOB.force(Some(Mode::Off));
        assert_eq!(KNOB.selected(), Mode::Off);
        KNOB.force(Some(Mode::On));
        assert_eq!(KNOB.selected(), Mode::On);
        KNOB.force(None);
        assert_eq!(KNOB.selected(), Mode::Auto);
    }
}
