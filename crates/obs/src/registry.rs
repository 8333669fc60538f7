//! The process-global metric registry.
//!
//! Series are keyed by `(name, labels)` and created on first use;
//! handles are `&'static` (the backing metric is leaked once, which is
//! exactly the lifetime a process-global series wants). Lookup takes a
//! mutex, so instrumentation sites should fetch handles once per
//! phase/batch — never per element — or cache them in a `OnceLock`.
//! Recording through a handle is lock-free.

use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    labels: &'static str,
    metric: Metric,
}

fn entries() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock() -> std::sync::MutexGuard<'static, Vec<Entry>> {
    // A poisoned registry only means a panic elsewhere mid-push; the
    // Vec itself is still structurally sound.
    entries().lock().unwrap_or_else(|e| e.into_inner())
}

/// Gets or creates the unlabeled counter `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    counter_labeled(name, "")
}

/// Gets or creates the counter `name{labels}`. `labels` must be a
/// literal Prometheus label body such as `route="search"` (empty for
/// none).
pub fn counter_labeled(name: &'static str, labels: &'static str) -> &'static Counter {
    let mut reg = lock();
    for e in reg.iter() {
        if e.name == name && e.labels == labels {
            match e.metric {
                Metric::Counter(c) => return c,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.push(Entry { name, labels, metric: Metric::Counter(c) });
    c
}

/// Gets or creates the unlabeled gauge `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    gauge_labeled(name, "")
}

/// Gets or creates the gauge `name{labels}`.
pub fn gauge_labeled(name: &'static str, labels: &'static str) -> &'static Gauge {
    let mut reg = lock();
    for e in reg.iter() {
        if e.name == name && e.labels == labels {
            match e.metric {
                Metric::Gauge(g) => return g,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    reg.push(Entry { name, labels, metric: Metric::Gauge(g) });
    g
}

/// Gets or creates the histogram `name{labels}` over `bounds`.
/// Re-registering an existing series with different bounds panics — two
/// call sites disagreeing on buckets is a bug, not a merge.
pub fn histogram(
    name: &'static str,
    labels: &'static str,
    bounds: &'static [u64],
) -> &'static Histogram {
    let mut reg = lock();
    for e in reg.iter() {
        if e.name == name && e.labels == labels {
            match e.metric {
                Metric::Histogram(h) => {
                    assert!(
                        std::ptr::eq(h.bounds(), bounds) || h.bounds() == bounds,
                        "histogram `{name}` re-registered with different bounds"
                    );
                    return h;
                }
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new(bounds)));
    reg.push(Entry { name, labels, metric: Metric::Histogram(h) });
    h
}

/// Renders every registered series in the Prometheus text format,
/// sorted by `(name, labels)` so output is stable across runs.
pub fn render() -> String {
    let reg = lock();
    let mut order: Vec<usize> = (0..reg.len()).collect();
    order.sort_by_key(|&i| (reg[i].name, reg[i].labels));
    let mut out = String::new();
    for i in order {
        let e = &reg[i];
        match e.metric {
            Metric::Counter(c) => c.render(e.name, e.labels, &mut out),
            Metric::Gauge(g) => g.render(e.name, e.labels, &mut out),
            Metric::Histogram(h) => h.render(e.name, e.labels, &mut out),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let a = counter("reg_test_total");
        let b = counter("reg_test_total");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let a = counter_labeled("reg_labeled_total", "kind=\"a\"");
        let b = counter_labeled("reg_labeled_total", "kind=\"b\"");
        assert!(!std::ptr::eq(a, b));
        a.add(2);
        b.add(5);
        let text = render();
        assert!(text.contains("reg_labeled_total{kind=\"a\"} 2"), "{text}");
        assert!(text.contains("reg_labeled_total{kind=\"b\"} 5"), "{text}");
    }

    #[test]
    fn render_is_sorted_and_stable() {
        gauge("reg_zz_gauge").set(3.5);
        histogram("reg_aa_us", "", &[10, 100]).observe(7);
        // the registry is the process's: sibling tests register series
        // and move their values between any two renders, so compare the
        // lines of the two families this test owns
        let own = || -> Vec<String> {
            render()
                .lines()
                .filter(|l| l.starts_with("reg_aa_us") || l.starts_with("reg_zz_gauge"))
                .map(String::from)
                .collect()
        };
        let lines = own();
        let aa = lines.iter().position(|l| l.starts_with("reg_aa_us_bucket"));
        let zz = lines.iter().position(|l| l.starts_with("reg_zz_gauge"));
        assert!(aa.expect("histogram rendered") < zz.expect("gauge rendered"), "{lines:?}");
        assert_eq!(own(), lines);
    }
}
