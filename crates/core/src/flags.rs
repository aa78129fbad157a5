//! Command-line flags, checked against the one list a command declares.
//!
//! Every `sdl-lab` subcommand and every bench binary declares its flags
//! once, as `(name, Arg)` pairs. [`Flags::parse`] checks the arguments
//! against those lists, and the same lists guard every lookup: reading a
//! flag the command did not declare panics, so a flag cannot be read
//! without being accepted, or accepted without being read.

use crate::config::closest_name;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Nothing: the flag is a switch.
    Switch,
    /// A value.
    Value,
    /// A value when the next argument is not a flag (`hotpath --check
    /// [PATH]`).
    OptionalValue,
    /// A value for the config key it names, read by
    /// [`AppConfig::set_text`](crate::AppConfig::set_text).
    Setting(&'static str),
}

/// A command's flags, parsed against the lists it declares.
#[derive(Debug)]
pub struct Flags {
    declared: Vec<(&'static str, Arg)>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parse `args` (the command's own arguments) for `command`. An
    /// unknown flag (named with a did-you-mean hint, or else the flags the
    /// command takes), a flag missing its value, a repeated flag and a
    /// stray argument are errors. Only a `--` prefix marks a flag, so
    /// `--seed -1` passes `-1` as a value.
    pub fn parse(
        command: &str,
        args: &[String],
        lists: &[&[(&'static str, Arg)]],
    ) -> Result<Flags, String> {
        let declared = lists.concat();
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            let Some(&(name, arg_kind)) = declared.iter().find(|(name, _)| name == arg) else {
                return Err(unknown_flag(command, arg, &declared));
            };
            if given.iter().any(|(seen, _)| *seen == name) {
                return Err(format!("{name} is given twice"));
            }
            let is_value = |v: &&String| !v.starts_with("--");
            let value = match arg_kind {
                Arg::Switch => None,
                Arg::Value | Arg::Setting(_) => Some(
                    rest.next().filter(is_value).ok_or_else(|| format!("{name} needs a value"))?,
                ),
                Arg::OptionalValue => rest.next_if(is_value),
            };
            given.push((name, value.cloned()));
        }
        Ok(Flags { declared, given })
    }

    fn lookup(&self, name: &str) -> Option<Option<&str>> {
        assert!(self.declared.iter().any(|(n, _)| *n == name), "undeclared flag {name}");
        self.given.iter().find(|(n, _)| *n == name).map(|(_, value)| value.as_deref())
    }

    /// The value given for `name`; `None` when it is absent, or given
    /// without its optional value.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name).flatten()
    }

    /// Whether `name` was given.
    pub fn present(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value given for `name`, parsed; `default` when there is none.
    /// An unparsable value is an error that names the flag.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(text) => text.parse().map_err(|_| format!("{name}: cannot parse '{text}'")),
            None => Ok(default),
        }
    }

    /// The count given for `name`, read as strictly as a setting flag's:
    /// digits only (no sign), at least `min`, and within `T`'s range.
    /// `None` when the flag is absent.
    pub fn count<T: TryFrom<u64>>(&self, name: &str, min: u64) -> Result<Option<T>, String> {
        let Some(text) = self.value(name) else {
            return Ok(None);
        };
        Some(text)
            .filter(|t| t.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|t| t.parse::<u64>().ok())
            .filter(|&n| n >= min)
            .and_then(|n| T::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("{name} must be a whole number of at least {min}, got '{text}'"))
    }
}

/// The error for an argument `command` does not declare: a did-you-mean
/// hint, or else the flags it takes.
fn unknown_flag(command: &str, arg: &str, declared: &[(&str, Arg)]) -> String {
    if !arg.starts_with("--") {
        return format!("unexpected argument '{arg}' for '{command}'");
    }
    let names = declared.iter().map(|(name, _)| *name);
    match closest_name(arg, names.clone()) {
        Some(flag) => format!("unknown flag '{arg}' for '{command}' (did you mean '{flag}'?)"),
        None if declared.is_empty() => format!("'{command}' takes no flags, got '{arg}'"),
        None => format!(
            "unknown flag '{arg}' for '{command}' (it takes {})",
            names.collect::<Vec<_>>().join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "undeclared flag --batch")]
    fn looking_up_an_undeclared_flag_is_a_bug() {
        const FLAGS: &[(&str, Arg)] = &[("--samples", Arg::Value)];
        let _ = Flags::parse("cmd", &[], &[FLAGS]).unwrap().present("--batch");
    }

    #[test]
    fn counts_take_digits_only_from_their_minimum_up() {
        const FLAGS: &[(&str, Arg)] = &[("--n", Arg::Value)];
        let count = |text: &str, min| {
            let flags = Flags::parse("cmd", &["--n".into(), text.into()], &[FLAGS]).unwrap();
            flags.count::<u32>("--n", min)
        };
        assert_eq!(count("7", 1), Ok(Some(7)));
        assert_eq!(count("0", 0), Ok(Some(0)));
        assert_eq!(count("4294967295", 1), Ok(Some(u32::MAX)));
        for bad in ["0", "+2", "-1", "", "2x", " 2", "4294967296"] {
            let err = count(bad, 1).unwrap_err();
            assert_eq!(err, format!("--n must be a whole number of at least 1, got '{bad}'"));
        }
        let absent = Flags::parse("cmd", &[], &[FLAGS]).unwrap();
        assert_eq!(absent.count::<u32>("--n", 1), Ok(None));
    }
}
