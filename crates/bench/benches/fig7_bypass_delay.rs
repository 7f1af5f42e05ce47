//! Regenerates Figure 7: the percentage of on-path instructions whose
//! last-arriving source value was delayed by the cross-cluster bypass
//! network, baseline vs. instruction placement. The paper: ~35% -> ~29%
//! on average.

use tracefill_bench::suite_records;
use tracefill_core::config::OptConfig;

fn main() {
    println!("=== Figure 7: bypass-delayed instructions (paper: ~35% -> ~29%) ===");
    println!("{:6} {:>10} {:>11}", "bench", "baseline%", "placement%");
    let (mut sb, mut sp, mut n) = (0.0, 0.0, 0.0);
    let records = suite_records(OptConfig::only_placement());
    for b in tracefill_workloads::suite() {
        let delayed = |opts: &str| {
            let r = records
                .iter()
                .find(|r| r.bench == b.name && r.opt_label == opts);
            r.expect("suite run").stats.bypass_delay_fraction() * 100.0
        };
        let (fb, fp) = (delayed("none"), delayed("placement"));
        println!("{:6} {:10.1} {:11.1}", b.name, fb, fp);
        sb += fb;
        sp += fp;
        n += 1.0;
    }
    println!("{:6} {:10.1} {:11.1}", "mean", sb / n, sp / n);
}
