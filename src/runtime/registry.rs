//! The multi-model registry: named decoding graphs, swapped and retired
//! under live sessions.
//!
//! A runtime serves any number of decoding graphs at once. The
//! construction-time graph stays the unnamed default; further models
//! are registered by name — [`AsrRuntime::register_model_image`], for
//! zero-copy [`GraphImage`]s whose records stay typed views over the
//! store buffer — and selected per session with
//! [`super::SessionOptions::model`]. A session resolves its name once,
//! at open: [`AsrRuntime::swap_model_image`] takes effect for *new*
//! opens only, while every in-flight session finishes on the graph it
//! resolved.
//! Replaced graphs are refcounted out: the registry keeps a weak
//! retired record, the sessions' own strong references keep the graph
//! (and any backing image buffer) alive, and the storage frees the
//! moment the last session drops. [`super::RuntimeStats::models`]
//! reports per-model session counts and resident bytes;
//! [`super::RuntimeStats::retired_models`] counts swapped-out graphs
//! still draining.
//!
//! [`ModelRegistry`] owns the whole protocol — compatibility check,
//! register / swap / resolve, retirement and its sweep —
//! behind the one mutex the runtime keeps it in; the `AsrRuntime`
//! methods below are the public face and only lock and delegate.

use super::{AsrRuntime, PipelineError};
use asr_wfst::store::GraphImage;
use asr_wfst::Wfst;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError, Weak};

/// One registered model's counters, from [`super::RuntimeStats::models`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// The name the model was registered under.
    pub name: String,
    /// Sessions currently decoding over this model.
    pub active_sessions: usize,
    /// Sessions ever opened on this model (across swaps the counter
    /// carries over: it counts the *name*, not the graph behind it).
    pub opened_sessions: u64,
    /// Bytes of graph storage this model keeps resident.
    pub resident_bytes: usize,
    /// Whether the graph is a zero-copy view over a v2 store image.
    pub image_backed: bool,
}

/// Per-name session counters, shared between the registry entry and
/// every session opened on that name (so a swap does not reset them:
/// they follow the name, not the graph).
#[derive(Debug, Default)]
pub(super) struct ModelCounters {
    active: AtomicUsize,
    opened: AtomicU64,
}

impl ModelCounters {
    /// Counts a session in, at open.
    pub(super) fn session_opened(&self) {
        self.opened.fetch_add(1, Ordering::AcqRel);
        self.active.fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a session out, from its `Drop`.
    pub(super) fn session_closed(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One registered model: its decoding graph plus bookkeeping.
#[derive(Debug)]
struct ModelEntry {
    graph: Arc<Wfst>,
    resident_bytes: usize,
    counters: Arc<ModelCounters>,
}

/// A graph swapped out or unregistered while sessions may still be
/// decoding over it. The registry keeps only a [`Weak`]; the sessions'
/// own strong references keep the graph (and any backing image buffer)
/// alive until the last one drops, at which point the sweep in
/// [`AsrRuntime::stats`] (and every registry mutation) forgets it.
#[derive(Debug)]
struct RetiredModel {
    graph: Weak<Wfst>,
}

/// The multi-model registry: named graphs sessions can select with
/// [`super::SessionOptions::model`], plus the retired list that tracks
/// swapped-out graphs until their in-flight sessions finish.
#[derive(Debug)]
pub(super) struct ModelRegistry {
    /// Score columns the runtime's acoustic model produces per frame
    /// (phones + the epsilon column): what every registered graph is
    /// checked against.
    model_phones: u32,
    /// Registration order is preserved (it is the order
    /// [`super::RuntimeStats::models`] reports) and lookups are linear:
    /// the registry holds a handful of models, not a symbol table.
    entries: Vec<(String, ModelEntry)>,
    retired: Vec<RetiredModel>,
}

impl ModelRegistry {
    pub(super) fn new(model_phones: u32) -> Self {
        Self {
            model_phones,
            entries: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// Checks a candidate graph against the runtime's acoustic model:
    /// every phone its emitting arcs reference must have a score column,
    /// or sessions on it could index past their rows. Both sides count
    /// label 0 (epsilon): `num_phones` is one past the largest input
    /// label, and a score row is phones + the epsilon column.
    fn check_compat(&self, name: &str, graph: &Wfst) -> Result<(), PipelineError> {
        if graph.num_phones() > self.model_phones {
            return Err(PipelineError::IncompatibleModel {
                name: name.to_owned(),
                graph_phones: graph.num_phones(),
                model_phones: self.model_phones,
            });
        }
        Ok(())
    }

    fn find(&self, name: &str) -> Option<&ModelEntry> {
        self.entries
            .iter()
            .find_map(|(n, e)| (n == name).then_some(e))
    }

    /// Drops retired records whose graphs no session holds anymore.
    fn sweep_retired(&mut self) {
        self.retired.retain(|r| r.graph.strong_count() > 0);
    }

    /// Moves a replaced graph to the retired list — unless nothing but
    /// the registry held it, in which case it frees right here.
    fn retire(&mut self, graph: Arc<Wfst>) {
        let weak = Arc::downgrade(&graph);
        drop(graph);
        if weak.strong_count() > 0 {
            self.retired.push(RetiredModel { graph: weak });
        }
        self.sweep_retired();
    }

    fn register(
        &mut self,
        name: &str,
        graph: Arc<Wfst>,
        resident_bytes: usize,
    ) -> Result<(), PipelineError> {
        self.check_compat(name, &graph)?;
        if self.find(name).is_some() {
            return Err(PipelineError::DuplicateModel(name.to_owned()));
        }
        self.entries.push((
            name.to_owned(),
            ModelEntry {
                graph,
                resident_bytes,
                counters: Arc::new(ModelCounters::default()),
            },
        ));
        self.sweep_retired();
        Ok(())
    }

    fn swap(
        &mut self,
        name: &str,
        graph: Arc<Wfst>,
        resident_bytes: usize,
    ) -> Result<(), PipelineError> {
        self.check_compat(name, &graph)?;
        let entry = self
            .entries
            .iter_mut()
            .find_map(|(n, e)| (n.as_str() == name).then_some(e))
            .ok_or_else(|| PipelineError::UnknownModel(name.to_owned()))?;
        let old = std::mem::replace(&mut entry.graph, graph);
        entry.resident_bytes = resident_bytes;
        self.retire(old);
        Ok(())
    }

    /// The graph behind `name` right now, and the per-name counters a
    /// session opened on it charges.
    pub(super) fn resolve(
        &self,
        name: &str,
    ) -> Result<(Arc<Wfst>, Arc<ModelCounters>), PipelineError> {
        let entry = self
            .find(name)
            .ok_or_else(|| PipelineError::UnknownModel(name.to_owned()))?;
        Ok((Arc::clone(&entry.graph), Arc::clone(&entry.counters)))
    }

    /// Sweeps the retired list, then reports what
    /// [`super::RuntimeStats`] carries of the registry: `models`,
    /// `resident_model_bytes`, `retired_models`.
    pub(super) fn stats(&mut self) -> (Vec<ModelStats>, usize, usize) {
        self.sweep_retired();
        let models: Vec<ModelStats> = self
            .entries
            .iter()
            .map(|(name, e)| ModelStats {
                name: name.clone(),
                active_sessions: e.counters.active.load(Ordering::Acquire),
                opened_sessions: e.counters.opened.load(Ordering::Acquire),
                resident_bytes: e.resident_bytes,
                image_backed: e.graph.is_image_backed(),
            })
            .collect();
        let resident = models.iter().map(|m| m.resident_bytes).sum();
        (models, resident, self.retired.len())
    }
}

impl AsrRuntime {
    pub(super) fn registry(&self) -> MutexGuard<'_, ModelRegistry> {
        self.inner
            .models
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers the graph of a loaded zero-copy store image under
    /// `name`. The registry holds typed views over the image buffer —
    /// no record is copied — and the model's resident bytes are the
    /// image's bytes. The buffer lives exactly as long as some session
    /// or registry entry still views it.
    ///
    /// # Errors
    ///
    /// [`PipelineError::DuplicateModel`] if `name` is already
    /// registered, [`PipelineError::IncompatibleModel`] if the graph
    /// references phones the runtime's acoustic model cannot score.
    pub fn register_model_image(&self, name: &str, image: GraphImage) -> Result<(), PipelineError> {
        let resident = image.resident_bytes();
        // Cloning an image-backed graph clones section views (pointer +
        // buffer handle), never the records.
        let graph = Arc::new(image.wfst().clone());
        self.registry().register(name, graph, resident)
    }

    /// Atomically replaces the graph behind a registered model with a
    /// loaded store image's (viewed zero-copy): sessions opened after the
    /// swap decode over it, while every in-flight session finishes on the
    /// graph it opened with (the old graph is retired and freed when its
    /// last session drops — watch [`super::RuntimeStats::retired_models`]).
    /// The model's session counters carry over: they follow the name.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownModel`] if `name` is not registered,
    /// [`PipelineError::IncompatibleModel`] as at registration.
    pub fn swap_model_image(&self, name: &str, image: GraphImage) -> Result<(), PipelineError> {
        let resident = image.resident_bytes();
        let graph = Arc::new(image.wfst().clone());
        self.registry().swap(name, graph, resident)
    }
}
