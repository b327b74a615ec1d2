//! The declarative experiment spec: what to run, expressed as data.
//!
//! A spec names a cross-product of (datasets × n × seeds × injector ×
//! missing-rates × features × k × index × methods × threads) plus the
//! warm-up policy. Specs come from a TOML file (the committed presets
//! under `crates/bench/specs/`, the paper's artifacts under
//! `crates/bench/specs/paper/`) or from `iim bench run` CLI flags; either
//! way they land in one [`Spec`] value that the [runner](crate::runner)
//! expands into cells.
//!
//! The parser handles the TOML subset the presets need — `key = value`
//! lines with strings, numbers, booleans, and single-line arrays, plus
//! `#` comments — because the workspace is dependency-free by policy.
//! Everything a spec names is validated up front against the real
//! registries ([`KNOWN_METHODS`] and [`IimSettings`], [`PaperData::ALL`]
//! and each dataset's arity, [`IndexChoice::parse`]): an unknown method,
//! a bad size or an attribute a dataset lacks is a typed [`SpecError`],
//! never a panic halfway through a run.

use crate::datasets::PaperData;
use crate::harness::IimSettings;
use iim_data::FeatureSelection;
use iim_neighbors::IndexChoice;
use std::fmt;

/// The method names a spec may request: IIM plus the Table II baselines,
/// exactly the lineup [`method_lineup`](crate::harness::method_lineup)
/// builds. IIM also takes learning settings in its name, such as
/// `IIM/fixed=200` (see [`IimSettings`]).
pub const KNOWN_METHODS: [&str; 14] = [
    "IIM", "Mean", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR", "LOESS", "BLR", "ERACER",
    "PMM", "XGB",
];

/// Which attributes each per-attribute model learns from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Features {
    /// Every attribute but the target (`all`, the paper's default).
    All,
    /// The first `f` non-target attributes (Figures 4–5's |F|).
    First(usize),
}

impl Features {
    /// The selection the lineup is built with.
    pub fn selection(self) -> FeatureSelection {
        match self {
            Features::All => FeatureSelection::AllOthers,
            Features::First(f) => FeatureSelection::FirstK(f),
        }
    }
}

impl fmt::Display for Features {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Features::All => f.write_str("all"),
            Features::First(n) => write!(f, "{n}"),
        }
    }
}

/// How the incomplete tuples are made. Every injector removes one cell
/// per incomplete tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injector {
    /// `attr` removes the last attribute, the paper's default `Am`;
    /// `attr:<j>` removes attribute `Aj`, counted from 1 (Table VI).
    Attr(Option<usize>),
    /// `clustered:<c>`: the last attribute, removed from clusters of `c`
    /// mutually nearest tuples (Figure 8).
    Clustered(usize),
}

impl Injector {
    /// Parses `attr`, `attr:<j>` or `clustered:<c>`.
    pub fn parse(text: &str) -> Option<Injector> {
        let arg = |rest: &str| rest.parse::<usize>().ok();
        match text.split_once(':') {
            None if text == "attr" => Some(Injector::Attr(None)),
            Some(("attr", j)) => arg(j).map(|j| Injector::Attr(Some(j))),
            Some(("clustered", c)) => arg(c).map(Injector::Clustered),
            _ => None,
        }
    }
}

impl fmt::Display for Injector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Injector::Attr(None) => f.write_str("attr"),
            Injector::Attr(Some(j)) => write!(f, "attr:{j}"),
            Injector::Clustered(c) => write!(f, "clustered:{c}"),
        }
    }
}

/// A declarative experiment: the full cross-product the runner executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Spec name; becomes the default result-file stem (`BENCH_<name>`).
    pub name: String,
    /// Methods to score: [`KNOWN_METHODS`], or IIM with settings.
    pub methods: Vec<String>,
    /// Datasets to run over.
    pub datasets: Vec<PaperData>,
    /// Fractions of tuples made incomplete (e.g. `0.05` = the paper's 5%).
    pub missing_rates: Vec<f64>,
    /// Worker-thread counts to sweep.
    pub threads: Vec<usize>,
    /// Neighbor-index variants to sweep.
    pub index: Vec<IndexChoice>,
    /// Timed samples recorded per cell.
    pub repeats: usize,
    /// Untimed warm-up executions per cell before the timed repeats.
    pub warmup: usize,
    /// Dataset sizes (all rows, complete and incomplete); empty = each
    /// dataset's harness default.
    pub n: Vec<usize>,
    /// Master RNG seeds; each drives generation, injection and the
    /// stochastic baselines of its cells.
    pub seeds: Vec<u64>,
    /// Imputation-neighbor counts.
    pub k: Vec<usize>,
    /// Feature sets.
    pub features: Vec<Features>,
    /// Injectors.
    pub injector: Vec<Injector>,
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            name: "adhoc".to_string(),
            methods: vec!["IIM".to_string()],
            datasets: vec![PaperData::Asf],
            missing_rates: vec![0.05],
            threads: vec![1],
            index: vec![IndexChoice::Auto],
            repeats: 3,
            warmup: 1,
            n: Vec::new(),
            seeds: vec![42],
            k: vec![10],
            features: vec![Features::All],
            injector: vec![Injector::Attr(None)],
        }
    }
}

/// Why a spec failed to parse or validate. Every variant carries the
/// offending token so the CLI can print an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line was not `key = value` / comment / blank.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A key the spec format does not define.
    UnknownKey(String),
    /// A value with the wrong type or range for its key.
    BadValue {
        /// The key being assigned.
        key: String,
        /// What was expected.
        message: String,
    },
    /// A method name outside [`KNOWN_METHODS`].
    UnknownMethod(String),
    /// A dataset name outside [`PaperData::ALL`].
    UnknownDataset(String),
    /// An index name [`IndexChoice::parse`] rejects.
    UnknownIndex(String),
    /// A list field was left empty, or repeats was zero.
    Empty(&'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::UnknownKey(k) => write!(f, "unknown spec key `{k}`"),
            SpecError::BadValue { key, message } => write!(f, "bad value for `{key}`: {message}"),
            SpecError::UnknownMethod(m) => {
                write!(
                    f,
                    "unknown method `{m}` (known: {})",
                    KNOWN_METHODS.join(", ")
                )
            }
            SpecError::UnknownDataset(d) => {
                let names: Vec<&str> = PaperData::ALL.iter().map(|d| d.name()).collect();
                write!(f, "unknown dataset `{d}` (known: {})", names.join(", "))
            }
            SpecError::UnknownIndex(i) => {
                write!(
                    f,
                    "unknown index `{i}` (known: auto, brute, kdtree, vptree)"
                )
            }
            SpecError::Empty(field) => write!(f, "spec field `{field}` must not be empty/zero"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One raw TOML value from the subset grammar.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Num(f64),
    Bool(bool),
    Arr(Vec<TomlValue>),
}

fn bad(key: &str, message: String) -> SpecError {
    SpecError::BadValue {
        key: key.to_string(),
        message,
    }
}

impl Spec {
    /// Parses and validates a spec from TOML-subset text.
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let mut spec = Spec::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                // `#` starts a comment unless inside a string; the preset
                // grammar keeps `#` out of strings so a plain split is safe.
                Some(pos) if !raw[..pos].contains('"') => &raw[..pos],
                _ => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                return Err(SpecError::Syntax {
                    line: line_no,
                    message: "sections are not part of the spec format; use top-level keys"
                        .to_string(),
                });
            }
            let (key, value) = line.split_once('=').ok_or_else(|| SpecError::Syntax {
                line: line_no,
                message: "expected `key = value`".to_string(),
            })?;
            let key = key.trim();
            let value = parse_value(value.trim()).map_err(|message| SpecError::Syntax {
                line: line_no,
                message,
            })?;
            spec.set(key, value)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Assigns one `key = value` pair (shared by the file parser and the
    /// CLI flag overrides, which funnel through the same typed checks).
    /// Ranges are checked by [`Spec::validate`].
    fn set(&mut self, key: &str, value: TomlValue) -> Result<(), SpecError> {
        let usizes = |value| -> Result<Vec<usize>, SpecError> {
            num_list(key, value)?
                .into_iter()
                .map(|v| usize_value(key, v))
                .collect()
        };
        match key {
            "name" => self.name = string_value(key, value)?,
            "methods" => self.methods = string_list(key, value)?,
            "datasets" => {
                self.datasets = string_list(key, value)?
                    .iter()
                    .map(|name| parse_dataset(name))
                    .collect::<Result<_, _>>()?;
            }
            "missing_rates" => self.missing_rates = num_list(key, value)?,
            "threads" => self.threads = usizes(value)?,
            "index" => {
                self.index = string_list(key, value)?
                    .iter()
                    .map(|name| {
                        IndexChoice::parse(name)
                            .ok_or_else(|| SpecError::UnknownIndex(name.clone()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "repeats" => self.repeats = usize_value(key, num_value(key, value)?)?,
            "warmup" => self.warmup = usize_value(key, num_value(key, value)?)?,
            "n" => self.n = usizes(value)?,
            "seeds" => self.seeds = usizes(value)?.into_iter().map(|s| s as u64).collect(),
            "k" => self.k = usizes(value)?,
            "features" => {
                let items = match value {
                    TomlValue::Arr(items) => items,
                    single => vec![single],
                };
                self.features = items
                    .into_iter()
                    .map(|item| match item {
                        TomlValue::Str(s) if s == "all" => Ok(Features::All),
                        TomlValue::Str(s) => s
                            .parse::<usize>()
                            .map(Features::First)
                            .map_err(|_| bad(key, format!("`{s}` is not `all` or a count"))),
                        TomlValue::Num(v) => usize_value(key, v).map(Features::First),
                        _ => Err(bad(key, "expected `all` or a count".to_string())),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "injector" => {
                self.injector = string_list(key, value)?
                    .iter()
                    .map(|text| {
                        Injector::parse(text).ok_or_else(|| {
                            bad(
                                key,
                                format!("`{text}` is not attr, attr:<j> or clustered:<c>"),
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(SpecError::UnknownKey(other.to_string())),
        }
        Ok(())
    }

    /// Applies a CLI-style override (`--methods IIM,kNN` → `("methods",
    /// "IIM,kNN")`). Comma-separated values become lists; scalar keys take
    /// the value as-is.
    pub fn set_from_flag(&mut self, key: &str, raw: &str) -> Result<(), SpecError> {
        let value = match key {
            "methods" | "datasets" | "index" | "features" | "injector" => TomlValue::Arr(
                raw.split(',')
                    .map(|s| TomlValue::Str(s.trim().to_string()))
                    .collect(),
            ),
            "missing_rates" | "threads" | "seeds" | "n" | "k" => TomlValue::Arr(
                raw.split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map(TomlValue::Num)
                            .map_err(|_| bad(key, format!("`{s}` is not a number")))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "name" => TomlValue::Str(raw.to_string()),
            _ => TomlValue::Num(
                raw.parse::<f64>()
                    .map_err(|_| bad(key, format!("`{raw}` is not a number")))?,
            ),
        };
        self.set(key, value)?;
        self.validate()
    }

    /// Checks every value's range and the cross-field invariants (list
    /// non-emptiness, known method names, attributes each dataset has) —
    /// run after any mutation path and before the runner starts.
    pub fn validate(&self) -> Result<(), SpecError> {
        for m in &self.methods {
            match IimSettings::parse(m) {
                Ok(Some(_)) => {}
                Ok(None) if KNOWN_METHODS.contains(&m.as_str()) => {}
                Ok(None) => return Err(SpecError::UnknownMethod(m.clone())),
                Err(message) => return Err(bad("methods", format!("{m}: {message}"))),
            }
        }
        let lists = [
            ("methods", self.methods.is_empty()),
            ("datasets", self.datasets.is_empty()),
            ("missing_rates", self.missing_rates.is_empty()),
            ("threads", self.threads.is_empty()),
            ("index", self.index.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("k", self.k.is_empty()),
            ("features", self.features.is_empty()),
            ("injector", self.injector.is_empty()),
        ];
        if let Some((field, _)) = lists.iter().find(|(_, empty)| *empty) {
            return Err(SpecError::Empty(field));
        }
        if self.repeats == 0 {
            return Err(SpecError::Empty("repeats"));
        }
        if let Some(r) = self
            .missing_rates
            .iter()
            .find(|r| !(**r > 0.0 && **r < 1.0))
        {
            return Err(bad("missing_rates", format!("rate {r} outside (0, 1)")));
        }
        if self.threads.contains(&0) {
            return Err(bad("threads", "thread counts must be positive".to_string()));
        }
        if self.k.contains(&0) {
            return Err(bad("k", "neighbor counts must be positive".to_string()));
        }
        if let Some(n) = self.n.iter().find(|&&n| n < 2) {
            return Err(bad(
                "n",
                format!("{n} rows leave no complete tuple beside an incomplete one; use n >= 2"),
            ));
        }
        // The narrowest dataset bounds every attribute-valued setting.
        let arity = self.datasets.iter().map(|d| d.arity()).min().unwrap_or(0);
        for &f in &self.features {
            if let Features::First(f) = f {
                if f == 0 || f >= arity {
                    return Err(bad(
                        "features",
                        format!("{f} is not in 1..{arity}, the feature counts every dataset has"),
                    ));
                }
            }
        }
        for &inj in &self.injector {
            match inj {
                Injector::Attr(Some(j)) if j == 0 || j > arity => {
                    return Err(bad(
                        "injector",
                        format!("attr:{j} is not in 1..={arity}, the attributes every dataset has"),
                    ));
                }
                Injector::Clustered(0) => {
                    return Err(bad("injector", "cluster size must be positive".to_string()));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Renders the spec back to its TOML-subset text (round-trips through
    /// [`Spec::parse`]); embedded in result files for provenance.
    pub fn to_toml(&self) -> String {
        fn list<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
            let items: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", items.join(", "))
        }
        let quoted = |s: &dyn fmt::Display| format!("\"{s}\"");
        let mut out = format!("name = \"{}\"\n", self.name);
        out.push_str(&format!(
            "methods = {}\n",
            list(&self.methods, |m| quoted(m))
        ));
        out.push_str(&format!(
            "datasets = {}\n",
            list(&self.datasets, |d| quoted(&d.name()))
        ));
        out.push_str(&format!(
            "missing_rates = {}\n",
            list(&self.missing_rates, |r| r.to_string())
        ));
        out.push_str(&format!(
            "threads = {}\n",
            list(&self.threads, |t| t.to_string())
        ));
        out.push_str(&format!(
            "index = {}\n",
            list(&self.index, |i| quoted(&i.name()))
        ));
        out.push_str(&format!("repeats = {}\n", self.repeats));
        out.push_str(&format!("warmup = {}\n", self.warmup));
        if !self.n.is_empty() {
            out.push_str(&format!("n = {}\n", list(&self.n, |n| n.to_string())));
        }
        out.push_str(&format!(
            "seeds = {}\n",
            list(&self.seeds, |s| s.to_string())
        ));
        out.push_str(&format!("k = {}\n", list(&self.k, |k| k.to_string())));
        out.push_str(&format!(
            "features = {}\n",
            list(&self.features, |f| match f {
                Features::All => quoted(f),
                Features::First(n) => n.to_string(),
            })
        ));
        out.push_str(&format!(
            "injector = {}\n",
            list(&self.injector, |i| quoted(i))
        ));
        out
    }
}

/// Case-insensitive dataset lookup against [`PaperData::ALL`].
pub fn parse_dataset(name: &str) -> Result<PaperData, SpecError> {
    PaperData::ALL
        .iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| SpecError::UnknownDataset(name.to_string()))
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if text.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        if inner.contains('"') {
            return Err("embedded quotes are not supported".to_string());
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array (arrays must be single-line)".to_string())?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(TomlValue::Arr(Vec::new()));
        }
        return inner
            .split(',')
            .map(|item| parse_value(item.trim()))
            .collect::<Result<Vec<_>, _>>()
            .map(TomlValue::Arr);
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    text.parse::<f64>()
        .map(TomlValue::Num)
        .map_err(|_| format!("`{text}` is not a string, number, bool, or array"))
}

fn string_value(key: &str, v: TomlValue) -> Result<String, SpecError> {
    match v {
        TomlValue::Str(s) => Ok(s),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected a string".to_string(),
        }),
    }
}

fn num_value(key: &str, v: TomlValue) -> Result<f64, SpecError> {
    match v {
        TomlValue::Num(n) => Ok(n),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected a number".to_string(),
        }),
    }
}

fn string_list(key: &str, v: TomlValue) -> Result<Vec<String>, SpecError> {
    match v {
        TomlValue::Arr(items) => items
            .into_iter()
            .map(|item| string_value(key, item))
            .collect(),
        TomlValue::Str(s) => Ok(vec![s]),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected an array of strings".to_string(),
        }),
    }
}

fn num_list(key: &str, v: TomlValue) -> Result<Vec<f64>, SpecError> {
    match v {
        TomlValue::Arr(items) => items.into_iter().map(|item| num_value(key, item)).collect(),
        TomlValue::Num(n) => Ok(vec![n]),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected an array of numbers".to_string(),
        }),
    }
}

fn usize_value(key: &str, v: f64) -> Result<usize, SpecError> {
    if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Ok(v as usize)
    } else {
        Err(SpecError::BadValue {
            key: key.to_string(),
            message: format!("`{v}` is not a non-negative integer"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A full spec exercising every key.
name = "quick"
methods = ["IIM", "kNN", "Mean", "IIM/fixed=200", "IIM/h=50/straightforward"]
datasets = ["ASF", "CCS"]
missing_rates = [0.05, 0.1]
threads = [1, 2]
index = ["auto", "brute"]
repeats = 2
warmup = 1
n = [300, 600]
seeds = [7, 8]
k = [5, 10]
features = ["all", 2]
injector = ["attr", "attr:2", "clustered:3"]
"#;

    #[test]
    fn parses_a_full_spec() {
        let spec = Spec::parse(FULL).unwrap();
        assert_eq!(spec.name, "quick");
        assert_eq!(
            spec.methods,
            [
                "IIM",
                "kNN",
                "Mean",
                "IIM/fixed=200",
                "IIM/h=50/straightforward"
            ]
        );
        assert_eq!(spec.datasets, [PaperData::Asf, PaperData::Ccs]);
        assert_eq!(spec.missing_rates, [0.05, 0.1]);
        assert_eq!(spec.threads, [1, 2]);
        assert_eq!(spec.index, [IndexChoice::Auto, IndexChoice::Brute]);
        assert_eq!((spec.repeats, spec.warmup), (2, 1));
        assert_eq!(spec.n, [300, 600]);
        assert_eq!(
            (spec.seeds.as_slice(), spec.k.as_slice()),
            (&[7, 8][..], &[5, 10][..])
        );
        assert_eq!(spec.features, [Features::All, Features::First(2)]);
        assert_eq!(
            spec.injector,
            [
                Injector::Attr(None),
                Injector::Attr(Some(2)),
                Injector::Clustered(3)
            ]
        );
    }

    #[test]
    fn round_trips_through_to_toml() {
        let spec = Spec::parse(FULL).unwrap();
        let again = Spec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn unknown_method_is_a_typed_error() {
        let err = Spec::parse("methods = [\"IIM\", \"SuperImputer\"]").unwrap_err();
        assert_eq!(err, SpecError::UnknownMethod("SuperImputer".to_string()));
    }

    #[test]
    fn unknown_dataset_is_a_typed_error() {
        let err = Spec::parse("datasets = [\"MNIST\"]").unwrap_err();
        assert_eq!(err, SpecError::UnknownDataset("MNIST".to_string()));
    }

    #[test]
    fn unknown_index_is_a_typed_error() {
        let err = Spec::parse("index = [\"btree\"]").unwrap_err();
        assert_eq!(err, SpecError::UnknownIndex("btree".to_string()));
    }

    #[test]
    fn unknown_key_is_a_typed_error() {
        let err = Spec::parse("cores = 4").unwrap_err();
        assert_eq!(err, SpecError::UnknownKey("cores".to_string()));
    }

    #[test]
    fn bad_syntax_reports_the_line() {
        let err = Spec::parse("name = \"ok\"\nnot a kv line\n").unwrap_err();
        match err {
            SpecError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_rates_and_zero_threads() {
        assert!(matches!(
            Spec::parse("missing_rates = [1.5]").unwrap_err(),
            SpecError::BadValue { .. }
        ));
        assert!(matches!(
            Spec::parse("threads = [0]").unwrap_err(),
            SpecError::BadValue { .. }
        ));
        assert_eq!(
            Spec::parse("repeats = 0").unwrap_err(),
            SpecError::Empty("repeats")
        );
    }

    #[test]
    fn flag_overrides_reuse_the_same_validation() {
        let mut spec = Spec::default();
        spec.set_from_flag("methods", "IIM,kNN").unwrap();
        assert_eq!(spec.methods, ["IIM", "kNN"]);
        spec.set_from_flag("threads", "1,4").unwrap();
        assert_eq!(spec.threads, [1, 4]);
        assert!(matches!(
            spec.set_from_flag("methods", "Nope").unwrap_err(),
            SpecError::UnknownMethod(_)
        ));
        assert!(matches!(
            spec.set_from_flag("datasets", "ASF,XX").unwrap_err(),
            SpecError::UnknownDataset(_)
        ));
    }

    #[test]
    fn dataset_names_are_case_insensitive() {
        let spec = Spec::parse("datasets = [\"asf\", \"Ca\"]").unwrap();
        assert_eq!(spec.datasets, [PaperData::Asf, PaperData::Ca]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = Spec::parse("# header\n\nseeds = 9 # trailing\n").unwrap();
        assert_eq!(spec.seeds, [9]);
    }

    #[test]
    fn degenerate_sizes_are_bad_values() {
        for text in [
            "k = 0",
            "k = [10, 0]",
            "n = 1",
            "n = 0",
            "n = [300, 1]",
            "seeds = []",
        ] {
            let err = Spec::parse(text).unwrap_err();
            assert!(
                matches!(err, SpecError::BadValue { .. } | SpecError::Empty(_)),
                "{text}: {err:?}"
            );
        }
        assert!(matches!(
            Spec::parse("n = 1").unwrap_err(),
            SpecError::BadValue { ref key, .. } if key == "n"
        ));
        assert!(matches!(
            Spec::parse("k = 0").unwrap_err(),
            SpecError::BadValue { ref key, .. } if key == "k"
        ));
        let spec = Spec::parse("n = 2").unwrap();
        assert_eq!(spec.n, [2]);
    }

    #[test]
    fn attribute_settings_are_checked_against_every_dataset() {
        // SN has two attributes, so one feature and attributes 1..=2.
        assert!(Spec::parse("datasets = [\"ASF\"]\nfeatures = [5]").is_ok());
        for text in [
            "datasets = [\"ASF\", \"SN\"]\nfeatures = [2]",
            "features = [0]",
            "features = [\"most\"]",
            "injector = [\"attr:0\"]",
            "injector = [\"attr:7\"]",
            "datasets = [\"SN\"]\ninjector = [\"attr:3\"]",
            "injector = [\"clustered:0\"]",
            "injector = [\"random\"]",
            "injector = [\"attr:x\"]",
        ] {
            assert!(
                matches!(Spec::parse(text).unwrap_err(), SpecError::BadValue { .. }),
                "{text}"
            );
        }
    }

    #[test]
    fn iim_settings_are_method_names() {
        let spec = Spec::parse("methods = [\"IIM/weighting=uniform\", \"IIM/fixed=50\"]").unwrap();
        assert_eq!(spec.methods, ["IIM/weighting=uniform", "IIM/fixed=50"]);
        assert!(matches!(
            Spec::parse("methods = [\"IIM/fixed=50/h=5\"]").unwrap_err(),
            SpecError::BadValue { .. }
        ));
        assert_eq!(
            Spec::parse("methods = [\"kNN/fixed=50\"]").unwrap_err(),
            SpecError::UnknownMethod("kNN/fixed=50".to_string())
        );
        let mut flags = Spec::default();
        flags.set_from_flag("methods", "IIM/h=10,kNN").unwrap();
        flags.set_from_flag("features", "all,3").unwrap();
        flags
            .set_from_flag("injector", "attr:1,clustered:5")
            .unwrap();
        flags.set_from_flag("seeds", "42,1").unwrap();
        assert_eq!(flags.methods, ["IIM/h=10", "kNN"]);
        assert_eq!(flags.features, [Features::All, Features::First(3)]);
        assert_eq!(
            flags.injector,
            [Injector::Attr(Some(1)), Injector::Clustered(5)]
        );
        assert_eq!(flags.seeds, [42, 1]);
        assert!(matches!(
            Spec::parse("seed = 42").unwrap_err(),
            SpecError::UnknownKey(_)
        ));
    }
}
