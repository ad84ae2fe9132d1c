//! RAII timing spans.

use std::time::Instant;

/// An RAII timing span: created by [`span`], it records the elapsed wall
/// time into the named histogram when dropped. When telemetry is disabled
/// at creation the span holds no clock and the drop is free.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a timing span feeding the named histogram (seconds). The returned
/// guard records on drop:
///
/// ```
/// {
///     let _span = cmr_obs::span("retrieval.query_latency_s");
///     // … timed work …
/// } // elapsed seconds recorded here
/// ```
pub fn span(name: &'static str) -> Span {
    Span { name, start: if crate::enabled() { Some(Instant::now()) } else { None } }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            crate::observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;

    #[test]
    fn span_records_into_the_named_histogram() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        crate::reset();
        crate::set_enabled(true);
        {
            let _span = span("span.test_s");
            std::hint::black_box(vec![0u8; 1024]);
        }
        crate::set_enabled(false);
        let snap = crate::snapshot("span.");
        let h = snap.histogram("span.test_s").expect("histogram recorded");
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }
}
