//! A tiny flag parser (no CLI dependency needed for seven flags).

use crate::schemes::SchemeKind;
use std::path::PathBuf;

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Args {
    /// log2 of the total cell budget; `None` = per-experiment default.
    pub cells_log2: Option<u32>,
    /// Measured operations per phase (paper: 1000).
    pub ops: usize,
    /// Use the paper's full table sizes (2^23–2^25 cells).
    pub full: bool,
    /// Base RNG/hash seed.
    pub seed: u64,
    /// Directory for CSV output (created if missing); `None` = stdout only.
    pub out_dir: Option<PathBuf>,
    /// Group size for group hashing (paper default 256).
    pub group_size: u64,
    /// Explicit scheme cast (`--schemes linear,iceberg,...`); `None`
    /// leaves each experiment its default cast.
    pub schemes: Option<Vec<SchemeKind>>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            cells_log2: None,
            ops: 1000,
            full: false,
            seed: 0x1C99_2018, // ICPP 2018
            out_dir: None,
            group_size: 256,
            schemes: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args`, exiting with usage on error or `--help`.
    pub fn parse() -> Args {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                eprintln!("{}", Self::usage());
                std::process::exit(if msg == "help" { 0 } else { 2 });
            }
        }
    }

    /// Usage text.
    pub fn usage() -> &'static str {
        "options:\n  \
         --cells-log2 <N>   total cell budget = 2^N (default: per experiment)\n  \
         --ops <N>          measured ops per phase (default 1000)\n  \
         --full             paper-size tables (2^23..2^25 cells; slow)\n  \
         --seed <N>         base seed (default fixed)\n  \
         --out-dir <DIR>    also write CSV files there\n  \
         --group-size <N>   group hashing group size (default 256)\n  \
         --schemes <LIST>   comma-separated scheme cast, e.g. iceberg,group\n  \
                            (labels: linear linear-L PFHT PFHT-L path path-L\n  \
                            iceberg iceberg-L group group-2c)\n  \
         --help             this text"
    }

    /// Parses an explicit argument list (testable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--cells-log2" => {
                    out.cells_log2 = Some(
                        val("--cells-log2")?
                            .parse()
                            .map_err(|e| format!("--cells-log2: {e}"))?,
                    )
                }
                "--ops" => out.ops = val("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
                "--full" => out.full = true,
                "--seed" => {
                    out.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--out-dir" => out.out_dir = Some(PathBuf::from(val("--out-dir")?)),
                "--schemes" => {
                    let list = val("--schemes")?;
                    let cast = list
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| {
                            SchemeKind::from_label(s.trim())
                                .ok_or_else(|| format!("--schemes: unknown scheme {s:?}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if cast.is_empty() {
                        return Err("--schemes: empty list".into());
                    }
                    out.schemes = Some(cast);
                }
                "--group-size" => {
                    out.group_size = val("--group-size")?
                        .parse()
                        .map_err(|e| format!("--group-size: {e}"))?
                }
                "--help" | "-h" => return Err("help".into()),
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if !out.group_size.is_power_of_two() {
            return Err("--group-size must be a power of two".into());
        }
        Ok(out)
    }

    /// The scheme cast for an experiment: `--schemes` when given, the
    /// experiment's `default` otherwise.
    pub fn cast(&self, default: &[SchemeKind]) -> Vec<SchemeKind> {
        self.schemes.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The cell budget for `trace`, honouring `--cells-log2`/`--full`.
    pub fn cells_for(&self, trace: crate::TraceKind) -> u64 {
        let log2 = self.cells_log2.unwrap_or(if self.full {
            trace.paper_cells_log2()
        } else {
            18
        });
        1u64 << log2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::try_parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.ops, 1000);
        assert_eq!(a.group_size, 256);
        assert!(!a.full);
        assert_eq!(a.cells_for(crate::TraceKind::RandomNum), 1 << 18);
    }

    #[test]
    fn full_sizes() {
        let a = parse(&["--full"]).unwrap();
        assert_eq!(a.cells_for(crate::TraceKind::RandomNum), 1 << 23);
        assert_eq!(a.cells_for(crate::TraceKind::Fingerprint), 1 << 25);
    }

    #[test]
    fn explicit_cells_override() {
        let a = parse(&["--full", "--cells-log2", "12"]).unwrap();
        assert_eq!(a.cells_for(crate::TraceKind::BagOfWords), 1 << 12);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--ops",
            "50",
            "--seed",
            "9",
            "--out-dir",
            "/tmp/x",
            "--group-size",
            "128",
        ])
        .unwrap();
        assert_eq!(a.ops, 50);
        assert_eq!(a.seed, 9);
        assert_eq!(a.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.group_size, 128);
    }

    #[test]
    fn rejects_unknown_and_bad_values() {
        assert!(parse(&["--nope"]).is_err());
        assert!(parse(&["--ops"]).is_err());
        assert!(parse(&["--ops", "abc"]).is_err());
        assert!(parse(&["--group-size", "100"]).is_err());
        assert!(parse(&["--schemes", "nonesuch"]).is_err());
        assert!(parse(&["--schemes", ""]).is_err());
    }

    #[test]
    fn schemes_filter_parses_labels() {
        let a = parse(&["--schemes", "iceberg,group, PFHT-L"]).unwrap();
        assert_eq!(
            a.schemes,
            Some(vec![
                SchemeKind::Iceberg,
                SchemeKind::Group,
                SchemeKind::PfhtL
            ])
        );
        // The filter overrides an experiment's default cast; absent, the
        // default stands.
        assert_eq!(a.cast(&SchemeKind::CONSISTENT).len(), 3);
        let d = parse(&[]).unwrap();
        assert_eq!(
            d.cast(&SchemeKind::CONSISTENT),
            SchemeKind::CONSISTENT.to_vec()
        );
    }
}
