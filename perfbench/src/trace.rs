//! Outside-in tracing: spans around the calls into the device layer and
//! around each client op, kept in memory and reduced at the end of a run.
//!
//! The engine and simfs are not instrumented. A [`TracedDevice`] sits
//! between the simulated device and `SimFs`, and the client loop brackets
//! every `get` and `put`. A device span's parent is the client op running
//! on the same sim thread (each sim thread is an OS thread, so a
//! thread-local finds it), or the background root when no client op is
//! running there: flushes, compactions and the writeback daemon.
//!
//! Spans carry virtual times only. Under the cooperative scheduler a span's
//! host duration would include every other sim thread's turns, so host cost
//! is reported through scheduler counts instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use xlsm_device::{Device, DeviceProfile, DeviceSnapshot};
use xlsm_sim::Nanos;

/// What a span brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A client `get`.
    Get,
    /// A client `put`.
    Put,
    /// `Device::read`.
    DeviceRead,
    /// `Device::write`.
    DeviceWrite,
    /// `Device::sync`.
    DeviceSync,
    /// `Device::trim`.
    DeviceTrim,
}

impl Layer {
    fn is_device(self) -> bool {
        !matches!(self, Layer::Get | Layer::Put)
    }
}

/// One completed span. Client ops are roots; a device span's `parent` is
/// the client op it ran under, or `None` for the background root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier; client ops number from 1, device spans carry 0.
    pub id: u32,
    /// Causing client op, if any.
    pub parent: Option<u32>,
    /// What was called.
    pub layer: Layer,
    /// Virtual start time.
    pub start: Nanos,
    /// Virtual end time.
    pub end: Nanos,
}

thread_local! {
    /// The client op running on this sim thread, if any.
    static CURRENT_OP: Cell<Option<u32>> = const { Cell::new(None) };
}

/// In-memory span sink shared by the device wrapper and the client loop.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_op: AtomicU32,
}

impl Tracer {
    /// A new, empty tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Marks the start of a client op on this sim thread.
    pub fn begin_op(&self) -> u32 {
        let id = self.next_op.fetch_add(1, Ordering::Relaxed) + 1;
        CURRENT_OP.with(|c| c.set(Some(id)));
        id
    }

    /// Records the client op `id`, which began at `start`.
    pub fn end_op(&self, id: u32, layer: Layer, start: Nanos) {
        CURRENT_OP.with(|c| c.set(None));
        self.push(Span {
            id,
            parent: None,
            layer,
            start,
            end: xlsm_sim::now_nanos(),
        });
    }

    fn device_call(&self, layer: Layer, call: impl FnOnce()) {
        let parent = CURRENT_OP.with(Cell::get);
        let start = xlsm_sim::now_nanos();
        call();
        self.push(Span {
            id: 0,
            parent,
            layer,
            start,
            end: xlsm_sim::now_nanos(),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Drops every span recorded so far (the set-up phase's).
    pub fn clear(&self) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clear();
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        )
    }
}

/// A [`Device`] that forwards every call and records a span for each
/// `read`, `write`, `sync` and `trim`.
#[derive(Debug)]
pub struct TracedDevice {
    inner: Arc<dyn Device>,
    tracer: Arc<Tracer>,
}

impl TracedDevice {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn Device>, tracer: Arc<Tracer>) -> TracedDevice {
        TracedDevice { inner, tracer }
    }
}

impl Device for TracedDevice {
    fn profile(&self) -> &DeviceProfile {
        self.inner.profile()
    }
    fn read(&self, lpn: u64, pages: u32) {
        self.tracer
            .device_call(Layer::DeviceRead, || self.inner.read(lpn, pages));
    }
    fn write(&self, lpn: u64, pages: u32) {
        self.tracer
            .device_call(Layer::DeviceWrite, || self.inner.write(lpn, pages));
    }
    fn trim(&self, lpn: u64, pages: u64) {
        self.tracer
            .device_call(Layer::DeviceTrim, || self.inner.trim(lpn, pages));
    }
    fn sync(&self) {
        self.tracer
            .device_call(Layer::DeviceSync, || self.inner.sync());
    }
    fn stats(&self) -> DeviceSnapshot {
        self.inner.stats()
    }
    fn power_cut(&self) {
        self.inner.power_cut();
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of it that `children` cover. Children may overlap each other and may
/// spill outside the parent; only covered parent time is subtracted.
pub fn self_time(start: Nanos, end: Nanos, children: &[(Nanos, Nanos)]) -> Nanos {
    let mut clipped: Vec<(Nanos, Nanos)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Per-layer figures reduced from one window's spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Traced `get`s.
    pub gets: u64,
    /// Summed `get` self time (not covered by device spans), ns.
    pub get_self_ns: u64,
    /// Summed device time under `get`s, ns.
    pub get_device_ns: u64,
    /// Summed device span time, ns.
    pub device_ns: u64,
    /// Summed device span time under the background root, ns.
    pub device_bg_ns: u64,
}

impl TraceSummary {
    /// Reduces `spans`.
    pub fn from_spans(spans: &[Span]) -> TraceSummary {
        let mut children: std::collections::HashMap<u32, Vec<(Nanos, Nanos)>> =
            std::collections::HashMap::new();
        let mut out = TraceSummary::default();
        for s in spans.iter().filter(|s| s.layer.is_device()) {
            out.device_ns += s.end - s.start;
            match s.parent {
                Some(op) => children.entry(op).or_default().push((s.start, s.end)),
                None => out.device_bg_ns += s.end - s.start,
            }
        }
        for s in spans.iter().filter(|s| s.layer == Layer::Get) {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let own = self_time(s.start, s.end, kids);
            out.gets += 1;
            out.get_self_ns += own;
            out.get_device_ns += (s.end - s.start) - own;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_time_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children cover 10..40 once.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // Nested child adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30)]), 60);
        // Children spilling outside the parent count only inside it.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // A child outside the parent entirely covers nothing.
        assert_eq!(self_time(50, 100, &[(0, 40)]), 50);
        // Fully covered.
        assert_eq!(self_time(0, 100, &[(0, 100)]), 0);
    }

    #[test]
    fn summary_splits_gets_and_background() {
        let span = |id, parent, layer, start, end| Span {
            id,
            parent,
            layer,
            start,
            end,
        };
        let spans = [
            span(0, Some(1), Layer::DeviceRead, 10, 40),
            span(1, None, Layer::Get, 0, 50),
            span(0, Some(2), Layer::DeviceWrite, 60, 70),
            span(2, None, Layer::Put, 55, 80),
            span(0, None, Layer::DeviceWrite, 0, 60),
        ];
        let s = TraceSummary::from_spans(&spans);
        assert_eq!(s.gets, 1);
        assert_eq!(s.get_self_ns, 20);
        assert_eq!(s.get_device_ns, 30);
        assert_eq!(s.device_ns, 100);
        assert_eq!(s.device_bg_ns, 60);
    }
}
