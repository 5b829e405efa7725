//! Span arithmetic: self time and joining leaves to their request.

use qce_benchmark::spans::{children_of, link_by_request, self_time_ns, Span, Tracer, NO_PARENT};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, request: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request,
        clock_ns: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    // Two parallel legs overlap on [30, 40]: together they cover [20, 60].
    assert_eq!(self_time_ns((0, 100), &[(20, 40), (30, 60)]), 60);
    // A child nested inside another adds nothing.
    assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
    // Disjoint children add up.
    assert_eq!(self_time_ns((0, 100), &[(10, 20), (50, 70)]), 70);
}

#[test]
fn self_time_clips_children_to_the_parent() {
    // A leg that outlives the decision counts only while the parent ran.
    assert_eq!(self_time_ns((10, 50), &[(40, 90)]), 30);
    assert_eq!(self_time_ns((10, 50), &[(0, 20)]), 30);
    // A child wholly outside covers nothing.
    assert_eq!(self_time_ns((10, 50), &[(60, 70)]), 40);
    // No children: self time is the duration; full cover: zero.
    assert_eq!(self_time_ns((10, 50), &[]), 40);
    assert_eq!(self_time_ns((10, 50), &[(0, 100)]), 0);
}

#[test]
fn leaves_are_joined_to_their_request_after_the_run() {
    let mut spans = vec![
        span("request", 0, 100, NO_PARENT, 7),
        span("gateway.submit_async", 0, 5, 0, 7),
        // Stamped on the loop thread: no parent known at the time.
        span("provider.try_timed_invoke", 20, 25, NO_PARENT, 7),
        span("provider.try_timed_invoke", 22, 30, NO_PARENT, 7),
        // Another request's leaf, and a span of no request.
        span("provider.try_timed_invoke", 40, 45, NO_PARENT, 8),
        span("market.fetch", 1, 2, NO_PARENT, 0),
    ];
    link_by_request(&mut spans, "request");
    assert_eq!(spans[2].parent, 0);
    assert_eq!(spans[3].parent, 0);
    assert_eq!(spans[4].parent, NO_PARENT, "request 8 has no root span");
    assert_eq!(spans[5].parent, NO_PARENT);
    assert_eq!(spans[0].parent, NO_PARENT, "a root never parents itself");
    let children = children_of(&spans);
    assert_eq!(children[0], vec![(0, 5), (20, 25), (22, 30)]);
    assert_eq!(self_time_ns((0, 100), &children[0]), 100 - 5 - 10);
}

#[test]
fn a_full_tracer_drops_and_counts() {
    let tracer = Tracer::new(2);
    let root = tracer.open("gateway.submit");
    assert_eq!(root, 0);
    assert_eq!(qce_benchmark::spans::current_parent(), 0);
    assert_eq!(tracer.record(span("leaf", 1, 2, root, 1)), 1);
    assert_eq!(tracer.record(span("leaf", 2, 3, root, 1)), NO_PARENT);
    tracer.close(root, 1);
    assert_eq!(qce_benchmark::spans::current_parent(), NO_PARENT);
    assert_eq!(tracer.dropped(), 1);
    let spans = tracer.snapshot();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].request, 1);
    assert!(spans[0].end_ns >= spans[0].start_ns);
    // Closing a span that was never stored is harmless.
    tracer.close(tracer.open("gateway.submit"), 2);
    assert_eq!(tracer.snapshot().len(), 2);
}
