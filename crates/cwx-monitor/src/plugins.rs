//! The plug-in directory (paper §5.1).
//!
//! "A plugin itself can be any program, script (shell, perl, etc.) or
//! any combination thereof — as long as it resides in the ClusterWorX
//! plug-in directory it will be recognized by the system automatically."
//!
//! The reproduction cannot execute arbitrary shell/perl, so a plug-in is
//! a small manifest file (`*.monitor`) describing where its value comes
//! from — which covers the realistic cases: reading a file a site script
//! maintains, evaluating an expression over built-in snapshot fields, or
//! a constant. The loader scans the directory and registers everything
//! it finds, exactly like the product's automatic recognition.
//!
//! Manifest format (one `key: value` pair per line, `#` comments):
//!
//! ```text
//! # gpfs.monitor
//! key = site.gpfs_health
//! class = dynamic            # or: static
//! unit = ""
//! source = file:/var/run/gpfs.status    # first line of the file
//! # or: source = const:42
//! # or: source = expr:mem.free_kb      (a snapshot field)
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use crate::monitor::{MonitorClass, Registry, Value};
use crate::snapshot::Snapshot;

/// Where a plug-in's value comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginSource {
    /// A constant (site label, rack number, ...).
    Const(f64),
    /// The first line of a file maintained by a site script.
    File(PathBuf),
    /// A named snapshot field (the "script wrapping a built-in" case).
    Expr(String),
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct PluginManifest {
    /// Monitor key the plug-in registers as.
    pub key: String,
    /// Static/dynamic classification.
    pub class: MonitorClass,
    /// Unit label.
    pub unit: &'static str,
    /// The value source.
    pub source: PluginSource,
}

/// Manifest parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PluginError {
    /// Required field missing.
    Missing(&'static str),
    /// Unknown class value.
    BadClass(String),
    /// Unknown source scheme.
    BadSource(String),
    /// IO problem reading the directory/manifest.
    Io(String),
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PluginError::Missing(k) => write!(f, "manifest missing field: {k}"),
            PluginError::BadClass(c) => write!(f, "bad class: {c}"),
            PluginError::BadSource(s) => write!(f, "bad source: {s}"),
            PluginError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for PluginError {}

/// Parse one manifest.
pub fn parse_manifest(text: &str) -> Result<PluginManifest, PluginError> {
    let mut key = None;
    let mut class = None;
    let mut source = None;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        let (k, v) = (k.trim(), v.trim().trim_matches('"'));
        match k {
            "key" => key = Some(v.to_string()),
            "class" => {
                class = Some(match v {
                    "static" => MonitorClass::Static,
                    "dynamic" => MonitorClass::Dynamic,
                    other => return Err(PluginError::BadClass(other.to_string())),
                })
            }
            "unit" => {} // units are display-only; leak-free static str would
            // need interning, so plug-ins render unitless
            "source" => {
                source = Some(if let Some(c) = v.strip_prefix("const:") {
                    PluginSource::Const(
                        c.trim()
                            .parse()
                            .map_err(|_| PluginError::BadSource(v.to_string()))?,
                    )
                } else if let Some(p) = v.strip_prefix("file:") {
                    PluginSource::File(PathBuf::from(p.trim()))
                } else if let Some(e) = v.strip_prefix("expr:") {
                    PluginSource::Expr(e.trim().to_string())
                } else {
                    return Err(PluginError::BadSource(v.to_string()));
                })
            }
            _ => {}
        }
    }
    Ok(PluginManifest {
        key: key.ok_or(PluginError::Missing("key"))?,
        class: class.unwrap_or(MonitorClass::Dynamic),
        unit: "",
        source: source.ok_or(PluginError::Missing("source"))?,
    })
}

/// Evaluate a snapshot field by name (the `expr:` scheme).
fn eval_expr(name: &str, snap: &Snapshot) -> Option<f64> {
    Some(match name {
        "mem.free_kb" => snap.mem.free_kb as f64,
        "mem.total_kb" => snap.mem.total_kb as f64,
        "mem.used_fraction" => snap.mem.used_fraction(),
        "cpu.utilization" => snap.cpu_utilization(),
        "load.one" => snap.load.one,
        "uptime.secs" => snap.uptime.uptime_secs,
        "sensors.cpu_temp_c" => snap.sensors.cpu_temp_c,
        "sensors.fan_rpm" => snap.sensors.fan_rpm,
        _ => return None,
    })
}

/// Register a parsed manifest into a registry.
pub fn register(registry: &mut Registry, manifest: PluginManifest) {
    let source = manifest.source.clone();
    registry.register_plugin(
        &manifest.key,
        manifest.class,
        manifest.unit,
        move |snap| match &source {
            PluginSource::Const(v) => Some(Value::Num(*v)),
            PluginSource::Expr(e) => eval_expr(e, snap).map(Value::Num),
            PluginSource::File(path) => {
                let text = fs::read_to_string(path).ok()?;
                let first = text.lines().next()?.trim();
                Some(match first.parse::<f64>() {
                    Ok(n) => Value::Num(n),
                    Err(_) => Value::Text(first.to_string()),
                })
            }
        },
    );
}

/// Scan a directory for `*.monitor` manifests and register all of them.
/// Returns the keys loaded and the per-file errors (bad manifests are
/// skipped, not fatal — one broken site script must not kill the agent).
pub fn load_dir(registry: &mut Registry, dir: &Path) -> (Vec<String>, Vec<(PathBuf, PluginError)>) {
    let mut loaded = Vec::new();
    let mut errors = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            errors.push((dir.to_path_buf(), PluginError::Io(e.to_string())));
            return (loaded, errors);
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "monitor"))
        .collect();
    paths.sort(); // deterministic registration order
    for path in paths {
        match fs::read_to_string(&path) {
            Ok(text) => match parse_manifest(&text) {
                Ok(m) => {
                    loaded.push(m.key.clone());
                    register(registry, m);
                }
                Err(e) => errors.push((path, e)),
            },
            Err(e) => errors.push((path, PluginError::Io(e.to_string()))),
        }
    }
    (loaded, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cwx-plugins-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parses_a_full_manifest() {
        let m = parse_manifest("# comment\nkey = site.rack\nclass = static\nsource = const:7\n")
            .unwrap();
        assert_eq!(m.key, "site.rack");
        assert_eq!(m.class, MonitorClass::Static);
        assert_eq!(m.source, PluginSource::Const(7.0));
    }

    #[test]
    fn rejects_bad_manifests() {
        assert_eq!(
            parse_manifest("source = const:1").unwrap_err(),
            PluginError::Missing("key")
        );
        assert_eq!(
            parse_manifest("key = a").unwrap_err(),
            PluginError::Missing("source")
        );
        assert!(matches!(
            parse_manifest("key=a\nclass=sometimes\nsource=const:1"),
            Err(PluginError::BadClass(_))
        ));
        assert!(matches!(
            parse_manifest("key=a\nsource=telepathy:x"),
            Err(PluginError::BadSource(_))
        ));
        assert!(matches!(
            parse_manifest("key=a\nsource=const:notanumber"),
            Err(PluginError::BadSource(_))
        ));
    }

    #[test]
    fn const_and_expr_plugins_evaluate() {
        let mut reg = Registry::new();
        register(
            &mut reg,
            parse_manifest("key=site.rack\nclass=static\nsource=const:12").unwrap(),
        );
        register(
            &mut reg,
            parse_manifest("key=site.memfree\nsource=expr:mem.free_kb").unwrap(),
        );
        let mut snap = Snapshot::default();
        snap.mem.free_kb = 1234;
        let mut got = std::collections::BTreeMap::new();
        for mut m in reg.iter_mut() {
            got.insert(m.key.to_string(), m.extract(&snap));
        }
        assert_eq!(got["site.rack"], Some(Value::Num(12.0)));
        assert_eq!(got["site.memfree"], Some(Value::Num(1234.0)));
    }

    #[test]
    fn file_plugin_reads_live_file() {
        let dir = tmpdir("file");
        let status = dir.join("gpfs.status");
        fs::write(&status, "42.5\nsecond line ignored\n").unwrap();
        let mut reg = Registry::new();
        register(
            &mut reg,
            PluginManifest {
                key: "site.gpfs".into(),
                class: MonitorClass::Dynamic,
                unit: "",
                source: PluginSource::File(status.clone()),
            },
        );
        let snap = Snapshot::default();
        let mut m = reg.iter_mut().next().unwrap();
        assert_eq!(m.extract(&snap), Some(Value::Num(42.5)));
        // site script updates the file; next tick sees the new value
        fs::write(&status, "degraded\n").unwrap();
        assert_eq!(m.extract(&snap), Some(Value::Text("degraded".into())));
        // file vanishes: the monitor yields None, agent keeps running
        fs::remove_file(&status).unwrap();
        assert_eq!(m.extract(&snap), None);
    }

    #[test]
    fn load_dir_recognizes_manifests_automatically() {
        let dir = tmpdir("dir");
        fs::write(
            dir.join("a_rack.monitor"),
            "key=site.rack\nclass=static\nsource=const:3",
        )
        .unwrap();
        fs::write(
            dir.join("b_temp.monitor"),
            "key=site.temp\nsource=expr:sensors.cpu_temp_c",
        )
        .unwrap();
        fs::write(dir.join("broken.monitor"), "key=only").unwrap();
        fs::write(dir.join("notes.txt"), "not a plugin").unwrap();
        let mut reg = Registry::new();
        let (loaded, errors) = load_dir(&mut reg, &dir);
        assert_eq!(
            loaded,
            vec!["site.rack".to_string(), "site.temp".to_string()]
        );
        assert_eq!(
            errors.len(),
            1,
            "the broken manifest is reported, not fatal"
        );
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn missing_directory_is_an_error_not_a_panic() {
        let mut reg = Registry::new();
        let (loaded, errors) = load_dir(&mut reg, Path::new("/nonexistent-cwx-plugins"));
        assert!(loaded.is_empty());
        assert_eq!(errors.len(), 1);
    }
}
