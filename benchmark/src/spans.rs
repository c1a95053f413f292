//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around its calls into
//! each layer of the program; nothing inside the program is touched. A span
//! is `(name, lane, id, start, end, parent)`: the lane is the rank, stage or
//! connection it ran on, the id is the step or request it belongs to, and
//! the parent is the span that caused it. The layer a span is billed to is
//! the part of its name before the first dot (`nn.forward` → `nn`).
//!
//! Spans stay in memory until the run ends; [`trace_events`] and
//! [`Ledger`] turn them into the trace file and the per-layer shares.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::json::Json;
use telemetry::trace::TraceEvent;

/// Index of a span in the recorder's buffer.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    /// Step or request the span belongs to.
    pub id: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A cloneable handle; every method is a no-op on a recorder that is off,
/// which is what the untraced runs use.
#[derive(Clone)]
pub struct Recorder(Option<Arc<Inner>>);

impl Recorder {
    pub fn off() -> Recorder {
        Recorder(None)
    }

    pub fn on() -> Recorder {
        Recorder(Some(Arc::new(Inner {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the recorder was created (0 when off).
    pub fn now_us(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |i| i.epoch.elapsed().as_secs_f64() * 1e6)
    }

    /// Microseconds on the recorder's clock of an `Instant` taken elsewhere.
    pub fn at_us(&self, t: Instant) -> f64 {
        self.0.as_ref().map_or(0.0, |i| {
            t.saturating_duration_since(i.epoch).as_secs_f64() * 1e6
        })
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        lane: u32,
        id: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> Option<SpanId> {
        let inner = self.0.as_ref()?;
        let mut spans = inner
            .spans
            .lock()
            .expect("no recorder user panics while holding the lock");
        spans.push(Span {
            name,
            lane,
            id,
            start_us,
            end_us,
            parent,
        });
        Some((spans.len() - 1) as SpanId)
    }

    /// Opens a span now; [`Self::close`] stamps its end.
    pub fn open(
        &self,
        name: &'static str,
        lane: u32,
        id: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        let now = self.now_us();
        self.record(name, lane, id, parent, now, now)
    }

    pub fn close(&self, span: Option<SpanId>) {
        if let (Some(inner), Some(s)) = (self.0.as_ref(), span) {
            let now = inner.epoch.elapsed().as_secs_f64() * 1e6;
            inner
                .spans
                .lock()
                .expect("no recorder user panics while holding the lock")[s as usize]
                .end_us = now;
        }
    }

    /// Start and end of a recorded span.
    pub fn bounds_us(&self, span: Option<SpanId>) -> Option<(f64, f64)> {
        let spans = self
            .0
            .as_ref()?
            .spans
            .lock()
            .expect("no recorder user panics while holding the lock");
        spans.get(span? as usize).map(|s| (s.start_us, s.end_us))
    }

    /// Times `f` as a span (just calls `f` when off).
    pub fn time<R>(
        &self,
        name: &'static str,
        lane: u32,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, lane, id, parent);
        let out = f();
        self.close(s);
        out
    }

    /// Drains every recorded span.
    pub fn take(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            std::mem::take(
                &mut *i
                    .spans
                    .lock()
                    .expect("no recorder user panics while holding the lock"),
            )
        })
    }
}

/// The layer a span is billed to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, in microseconds: its duration minus the part
/// of its interval that its child spans cover (children may overlap each
/// other, and may stick out of the parent; both are handled by clipping
/// and taking the union).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if b > a {
                kids[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, iv)| {
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut cover = 0.0;
            let mut edge = f64::NEG_INFINITY;
            for &(a, b) in iv.iter() {
                if b > edge {
                    cover += b - a.max(edge);
                    edge = b;
                }
            }
            s.dur_us() - cover
        })
        .collect()
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us() / 1e3)
        .collect()
}

/// Nearest-rank median duration, in milliseconds, of the spans called
/// `name`; 0 when there is none (the layer did no work).
pub fn median_ms(spans: &[Span], name: &str) -> f64 {
    let d = durations_ms(spans, name);
    if d.is_empty() {
        0.0
    } else {
        crate::stats::percentile(&d, 0.5)
    }
}

/// Where the wall time of the root spans went, by layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Name of the root spans (`step` or `request`).
    pub root: &'static str,
    pub roots: usize,
    /// Summed wall of the roots, microseconds.
    pub wall_us: f64,
    /// Summed self time of the roots' descendants, by layer.
    pub layer_us: BTreeMap<String, f64>,
    /// Summed self time of the roots themselves: wall no child span covers.
    pub unattributed_us: f64,
}

impl Ledger {
    /// Builds the ledger of every span tree rooted at a span called `root`.
    /// Spans outside those trees (work that ran beside the blocking path,
    /// such as the faster rank of a step) are in the trace only.
    pub fn build(spans: &[Span], root: &'static str) -> Ledger {
        let own = self_times_us(spans);
        let in_tree = |mut i: usize| loop {
            match spans[i].parent {
                None => return spans[i].name == root,
                Some(p) => i = p as usize,
            }
        };
        let mut ledger = Ledger {
            root,
            roots: 0,
            wall_us: 0.0,
            layer_us: BTreeMap::new(),
            unattributed_us: 0.0,
        };
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() {
                if s.name == root {
                    ledger.roots += 1;
                    ledger.wall_us += s.dur_us();
                    ledger.unattributed_us += own[i];
                }
            } else if in_tree(i) {
                *ledger
                    .layer_us
                    .entry(layer_of(s.name).to_string())
                    .or_insert(0.0) += own[i];
            }
        }
        ledger
    }

    /// A layer's share of the roots' wall (0 when the layer has no span).
    pub fn share(&self, layer: &str) -> f64 {
        if self.wall_us > 0.0 {
            self.layer_us.get(layer).copied().unwrap_or(0.0) / self.wall_us
        } else {
            0.0
        }
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.unattributed_us / self.wall_us
        } else {
            0.0
        }
    }

    /// Layer shares plus the unattributed share; 1 when no child span
    /// sticks out of its parent or overlaps a sibling on the blocking path.
    pub fn share_sum(&self) -> f64 {
        self.layer_us.keys().map(|l| self.share(l)).sum::<f64>() + self.unattributed_share()
    }

    pub fn to_json(&self) -> Json {
        let mut layers: Vec<(String, Json)> = self
            .layer_us
            .keys()
            .map(|l| (l.clone(), Json::Num(self.share(l))))
            .collect();
        layers.push((
            "unattributed_share".to_string(),
            Json::Num(self.unattributed_share()),
        ));
        Json::Obj(vec![
            ("root".to_string(), Json::Str(self.root.to_string())),
            ("roots".to_string(), Json::UInt(self.roots as u64)),
            (
                "wall_ms_mean".to_string(),
                Json::Num(self.wall_us / 1e3 / self.roots.max(1) as f64),
            ),
            ("shares".to_string(), Json::Obj(layers)),
            ("share_sum".to_string(), Json::Num(self.share_sum())),
        ])
    }
}

/// The spans as Chrome `trace_event` complete events, for
/// [`telemetry::trace::write_chrome_trace`] (loadable in Perfetto or
/// chrome://tracing): the lane is the thread id, the layer the category.
pub fn trace_events(spans: &[Span]) -> Vec<TraceEvent> {
    spans
        .iter()
        .map(|s| {
            let mut args = vec![("id".to_string(), Json::UInt(s.id))];
            if let Some(p) = s.parent {
                let parent = spans[p as usize].name.to_string();
                args.push(("parent".to_string(), Json::Str(parent)));
            }
            TraceEvent {
                name: s.name.to_string(),
                cat: layer_of(s.name).to_string(),
                pid: 1,
                tid: u64::from(s.lane),
                ts_us: s.start_us,
                dur_us: s.dur_us(),
                args,
            }
        })
        .collect()
}
