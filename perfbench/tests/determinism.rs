//! Workload digests are identical at 1 and 2 clients or workers and
//! across reruns, and a timed pass reproduces every set-up answer.

use perfbench::campaign;
use perfbench::interactive::{prepare, timed_phase, InteractiveOptions};

fn options(faults: bool, clients: usize) -> InteractiveOptions {
    InteractiveOptions { seed: 3, faults, clients, seconds: 0.0, trace: false }
}

#[test]
fn interactive_digests_are_client_count_invariant() {
    for faults in [false, true] {
        let one = prepare(&options(faults, 1));
        let two = prepare(&options(faults, 2));
        let again = prepare(&options(faults, 2));
        assert_eq!(one.digest(), two.digest(), "faults={faults}");
        assert_eq!(two.digest(), again.digest(), "faults={faults}");
        assert_eq!(one.references, two.references, "faults={faults}");

        // One timed pass (zero seconds rounds up to a whole pass) answers
        // every query as set-up did, traced or not.
        for trace in [false, true] {
            let opts = InteractiveOptions { trace, ..options(faults, 2) };
            let run = timed_phase(&two, &opts);
            assert_eq!(run.attempted as usize, two.pool.len());
            assert_eq!(run.mismatched, 0, "faults={faults} trace={trace}");
        }
    }
}

#[test]
fn campaign_digest_is_worker_count_invariant() {
    let spec = campaign::spec(9, 1);
    let prepared = campaign::prepare(&spec);
    let one = campaign::run(&prepared, &spec, 1);
    let two = campaign::run(&prepared, &spec, 2);
    let again = campaign::run(&campaign::prepare(&spec), &spec, 2);
    assert_eq!(one.report.scorecard.queries, 39);
    assert_eq!(campaign::digest(&one.report), campaign::digest(&two.report));
    assert_eq!(campaign::digest(&two.report), campaign::digest(&again.report));
    // The traced replica serves the same task list to the same answers.
    let traced_one = campaign::run_traced(&prepared, &spec, 1);
    let traced_two = campaign::run_traced(&prepared, &spec, 2);
    assert_eq!(traced_one.digest, traced_two.digest);
    assert_eq!(traced_one.tasks, 39);
    assert_eq!(traced_one.failed as usize, one.report.scorecard.failed);
}
