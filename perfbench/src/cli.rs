//! Command-line arguments: `--workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`.

use crate::workloads::Workload;

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics, spans off. `true`: the traced run,
    /// which reports the per-layer metrics.
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <train_dd|serve_socket|serve_manyclass> --seed <u64> \
     --seconds <1..=600> --trace <0|1>";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed wants a u64, got {value:?}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| format!("--seconds wants a whole number, got {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(strings(&[
            "--workload",
            "serve_socket",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, Workload::ServeSocket);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 20.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        let base = ["--workload", "train_dd", "--seed", "1", "--seconds", "1"];
        let with = |at: usize, value: &str| {
            let mut args = base;
            args[at] = value;
            parse(strings(&args))
        };
        assert!(parse(strings(&base)).is_ok());
        assert!(with(1, "nope").is_err());
        assert!(with(3, "-1").is_err());
        assert!(with(5, "0").is_err());
        assert!(with(5, "601").is_err());
        assert!(parse(strings(&base[..4])).is_err());
        assert!(parse(strings(&[&base[..], &["--trace", "2"]].concat())).is_err());
        assert!(parse(strings(&["--bogus", "1"])).is_err());
    }
}
