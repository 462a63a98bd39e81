//! The multi-model fleet registry and its zero-downtime hot-swap
//! handle.
//!
//! A [`ModelRegistry`] hosts many named [`Engine`]s in one process.
//! Each model sits behind a [`Swap`] — an `ArcSwap`-style atomic
//! handle: readers clone the current `Arc` under a lock held only for
//! the clone, and a reload publishes a replacement `Arc` the same way.
//! Readers therefore always observe a fully-constructed old-or-new
//! engine, in-flight requests finish on the engine they started on,
//! and the retired engine is freed when the last in-flight holder
//! drops. It has nothing left to drain then: an engine owns no thread,
//! and every request still queued on it has a submitter holding a
//! handle until the request is answered. The interleaving safety of
//! this load/swap protocol is model-checked against `parallel::model`
//! in the crate's test suite.

use crate::error::NetError;
use crate::wire::{self, ModelInfo};
use engine::{Engine, EngineBuilder};
use graphhd::GraphHdModel;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;
use telemetry::Histogram;

/// An `ArcSwap`-style handle: a shared slot holding an `Arc<T>` that
/// can be atomically replaced while readers hold clones of the old
/// value.
///
/// Hand-rolled over `Mutex<Arc<T>>` (the workspace denies `unsafe`, so
/// no `AtomicPtr` epoch scheme): [`Swap::load`] locks only long enough
/// to clone the `Arc`, and [`Swap::store`] only long enough to replace
/// it, so neither side ever blocks on the other's *use* of the value —
/// only on the pointer-sized critical section.
#[derive(Debug)]
pub struct Swap<T> {
    current: Mutex<Arc<T>>,
}

impl<T> Swap<T> {
    /// Wraps an initial value.
    pub fn new(value: T) -> Self {
        Self {
            current: Mutex::new(Arc::new(value)),
        }
    }

    /// Returns a handle to the currently-published value. The lock is
    /// held only for the `Arc` clone; the value itself is used outside
    /// any critical section.
    #[must_use]
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `value`, returning the handle it replaced. Readers
    /// that loaded before the store keep the old value alive until
    /// they drop it.
    pub fn store(&self, value: T) -> Arc<T> {
        let mut slot = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Arc::new(value))
    }
}

/// A served engine plus the snapshot version it was built from.
#[derive(Debug)]
pub(crate) struct ServedEngine {
    pub(crate) engine: Engine,
    /// `save_version` number, or 0 for engines inserted directly.
    pub(crate) version: u64,
}

/// Reload configuration for a versioned model: where its snapshot
/// directory lives and how to rebuild an engine around a new model.
#[derive(Debug, Clone)]
struct ReloadSpec {
    dir: PathBuf,
    builder: EngineBuilder,
}

/// One hosted model: the swap handle plus per-model serving metrics.
#[derive(Debug)]
pub(crate) struct ModelSlot {
    pub(crate) served: Swap<ServedEngine>,
    /// Server-side end-to-end latency (decode to response written).
    /// One histogram per model, re-registered into each new engine's
    /// registry on hot-swap so the series survives version changes.
    pub(crate) net_request_ns: Histogram,
    reload: Option<ReloadSpec>,
}

fn register_net_latency(engine: &Engine, histogram: &Histogram) {
    engine.registry().register_histogram(
        "net_request_ns",
        "Server-side request latency over the wire, nanoseconds (decode to response written)",
        histogram,
    );
}

/// Checks a model name against the safe charset shared by wire frames
/// and Prometheus label values.
fn validate_name(name: &str) -> Result<(), NetError> {
    let ok = !name.is_empty()
        && name.len() <= wire::MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
    if ok {
        Ok(())
    } else {
        Err(NetError::InvalidModelName {
            name: name.to_string(),
        })
    }
}

/// Hosts many named engines in one process, with per-model routing,
/// zero-downtime hot-swap, snapshot-directory reload, and a merged
/// Prometheus scrape across the fleet.
///
/// The registry is shared between the server's connection threads and
/// any reload driver (a [`WatcherGuard`] thread or an operator call),
/// so every method takes `&self`.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    /// Insertion-ordered so `names()` and the merged scrape are
    /// deterministic. Lookup is a linear scan — fleets are tens of
    /// models, not millions.
    models: Mutex<Vec<(String, Arc<ModelSlot>)>>,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(String, Arc<ModelSlot>)>> {
        self.models.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn insert_slot(
        &self,
        name: &str,
        engine: Engine,
        version: u64,
        reload: Option<ReloadSpec>,
    ) -> Result<(), NetError> {
        validate_name(name)?;
        let net_request_ns = Histogram::new();
        register_net_latency(&engine, &net_request_ns);
        let slot = Arc::new(ModelSlot {
            served: Swap::new(ServedEngine { engine, version }),
            net_request_ns,
            reload,
        });
        let mut models = self.lock();
        if models.iter().any(|(existing, _)| existing == name) {
            return Err(NetError::DuplicateModel {
                name: name.to_string(),
            });
        }
        models.push((name.to_string(), slot));
        Ok(())
    }

    /// Hosts `engine` under `name` (version 0, not reloadable).
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidModelName`] for a name outside the safe
    /// charset, [`NetError::DuplicateModel`] if the name is taken.
    pub fn insert(&self, name: &str, engine: Engine) -> Result<(), NetError> {
        self.insert_slot(name, engine, 0, None)
    }

    /// Hosts the newest snapshot version in `dir` under `name`, built
    /// with `builder`, and remembers both so [`reload`](Self::reload)
    /// can hot-swap in later versions. Returns the loaded version.
    ///
    /// # Errors
    ///
    /// Name and duplicate errors as [`insert`](Self::insert), plus
    /// [`NetError::Engine`] if no loadable snapshot exists in `dir` or
    /// the engine cannot be built.
    pub fn insert_versioned(
        &self,
        name: &str,
        dir: impl Into<PathBuf>,
        builder: EngineBuilder,
    ) -> Result<u64, NetError> {
        validate_name(name)?;
        let dir = dir.into();
        let (model, version) = GraphHdModel::load_latest(&dir)?;
        let engine = builder.clone().from_model(model)?;
        self.insert_slot(name, engine, version, Some(ReloadSpec { dir, builder }))?;
        Ok(version)
    }

    pub(crate) fn slot(&self, name: &str) -> Option<Arc<ModelSlot>> {
        self.lock()
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, slot)| Arc::clone(slot))
    }

    /// A handle to the currently-published engine for `name`, or
    /// `None` if the model is not hosted. The clone keeps serving the
    /// same version even if a hot-swap lands while it is in use.
    #[must_use]
    pub fn engine(&self, name: &str) -> Option<Engine> {
        self.slot(name)
            .map(|slot| slot.served.load().engine.clone())
    }

    /// The currently-served snapshot version for `name`.
    #[must_use]
    pub fn version(&self, name: &str) -> Option<u64> {
        self.slot(name).map(|slot| slot.served.load().version)
    }

    /// Hosted model names, in insertion order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.lock().iter().map(|(name, _)| name.clone()).collect()
    }

    /// Wire-level metadata for `name`: dimensionality, class count and
    /// served snapshot version.
    #[must_use]
    pub fn info(&self, name: &str) -> Option<ModelInfo> {
        let slot = self.slot(name)?;
        let served = slot.served.load();
        Some(ModelInfo {
            dim: served.engine.model().encoder().config().dim as u64,
            num_classes: u32::try_from(served.engine.num_classes()).unwrap_or(u32::MAX),
            version: served.version,
        })
    }

    /// Per-model server-side latency snapshot (`net_request_ns`), or
    /// `None` if the model is not hosted.
    #[must_use]
    pub fn net_latency(&self, name: &str) -> Option<telemetry::HistogramSnapshot> {
        self.slot(name).map(|slot| slot.net_request_ns.snapshot())
    }

    /// Checks `name`'s snapshot directory and hot-swaps to the newest
    /// version if it is newer than the serving one. Returns
    /// `Some(version)` when a swap happened, `None` when already
    /// current. In-flight requests finish on the engine they started
    /// on; the retired engine is freed when its last holder drops.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownModel`] if `name` is not hosted,
    /// [`NetError::NotReloadable`] if it was inserted without a
    /// snapshot directory, [`NetError::Engine`] if loading or engine
    /// construction fails (the serving engine is left untouched).
    pub fn reload(&self, name: &str) -> Result<Option<u64>, NetError> {
        let slot = self.slot(name).ok_or_else(|| NetError::UnknownModel {
            name: name.to_string(),
        })?;
        let spec = slot
            .reload
            .as_ref()
            .ok_or_else(|| NetError::NotReloadable {
                name: name.to_string(),
            })?;
        let (model, version) = GraphHdModel::load_latest(&spec.dir)?;
        if version <= slot.served.load().version {
            return Ok(None);
        }
        // Build and register fully before publishing: a reader that
        // loads mid-reload sees either the complete old engine or the
        // complete new one, never a half-initialized value.
        let engine = spec.builder.clone().from_model(model)?;
        register_net_latency(&engine, &slot.net_request_ns);
        let retired = slot.served.store(ServedEngine { engine, version });
        drop(retired);
        Ok(Some(version))
    }

    /// Runs [`reload`](Self::reload) over every reloadable model,
    /// returning `(name, new_version)` for each completed swap.
    /// Per-model failures (for example a snapshot directory that is
    /// momentarily mid-write) are skipped, matching `load_latest`'s
    /// newest-loadable fallback semantics — the next pass retries.
    #[must_use]
    pub fn reload_all(&self) -> Vec<(String, u64)> {
        let names = self.names();
        let mut swapped = Vec::new();
        for name in names {
            if let Ok(Some(version)) = self.reload(&name) {
                swapped.push((name, version));
            }
        }
        swapped
    }

    /// Spawns a polling watcher thread that calls
    /// [`reload_all`](Self::reload_all) every `interval` until the
    /// returned guard drops. This is the `save_version`-directory
    /// watch path: a trainer writes `model.v{N}.ghd` files, the
    /// watcher picks each one up and hot-swaps it into service.
    #[must_use]
    pub fn spawn_watcher(self: &Arc<Self>, interval: Duration) -> WatcherGuard {
        let registry = Arc::clone(self);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("netserve-watcher".to_string())
            .spawn(move || loop {
                let (flag, signal) = &*stop_thread;
                {
                    let guard = flag.lock().unwrap_or_else(PoisonError::into_inner);
                    if *guard {
                        return;
                    }
                    let (guard, _) = signal
                        .wait_timeout(guard, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    if *guard {
                        return;
                    }
                }
                let _ = registry.reload_all();
            })
            .ok();
        WatcherGuard { stop, handle }
    }

    /// Renders one coherent Prometheus exposition across every hosted
    /// engine: each engine's registry (including the per-model
    /// `net_request_ns` series) is emitted with a `model="name"` label
    /// injected into every sample, with `# HELP`/`# TYPE` headers
    /// emitted once per metric name. The output passes
    /// `telemetry::validate_exposition`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let models = self.lock().clone();
        let mut out = String::new();
        let mut seen = std::collections::BTreeSet::new();
        for (name, slot) in models {
            let exposition = slot.served.load().engine.registry().render_prometheus();
            merge_labeled(&mut out, &exposition, &name, &mut seen);
        }
        out
    }
}

/// Appends `exposition` to `out` with `model="label"` injected into
/// every sample line, keeping only the first `# HELP`/`# TYPE` pair
/// per metric name (tracked in `seen`) so the merged text stays a
/// valid exposition.
pub(crate) fn merge_labeled(
    out: &mut String,
    exposition: &str,
    label: &str,
    seen: &mut std::collections::BTreeSet<String>,
) {
    // The renderer emits `# HELP` immediately before `# TYPE`: keep
    // the pair the first time a metric name appears, drop repeats.
    let mut keep_type_for: Option<String> = None;
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let metric = rest.split(' ').next().unwrap_or_default();
            keep_type_for = seen.insert(metric.to_string()).then(|| metric.to_string());
            if keep_type_for.is_some() {
                out.push_str(line);
                out.push('\n');
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let metric = rest.split(' ').next().unwrap_or_default();
            if keep_type_for.as_deref() == Some(metric) {
                out.push_str(line);
                out.push('\n');
            }
        } else if !line.is_empty() {
            match line.split_once('{') {
                Some((sample_name, rest)) => {
                    // name{labels} value  →  name{model="x",labels} value
                    out.push_str(sample_name);
                    out.push('{');
                    out.push_str(&format!("model=\"{label}\","));
                    out.push_str(rest);
                }
                None => match line.split_once(' ') {
                    // name value  →  name{model="x"} value
                    Some((sample_name, value)) => {
                        out.push_str(&format!("{sample_name}{{model=\"{label}\"}} {value}"));
                    }
                    None => out.push_str(line),
                },
            }
            out.push('\n');
        }
    }
}

/// Stops and joins the watcher thread when dropped. Call
/// [`WatcherGuard::stop`] to do the same eagerly.
#[derive(Debug)]
pub struct WatcherGuard {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WatcherGuard {
    /// Signals the watcher to stop and joins it. Idempotent.
    pub fn stop(&mut self) {
        let (flag, signal) = &*self.stop;
        *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WatcherGuard {
    fn drop(&mut self) {
        self.stop();
    }
}
