//! SDF → chip mapping/execution cross-validation — the Section 4.1 flow
//! (steps 1–9) run end to end for the DDC and the 802.11a receiver, with
//! the measured simulation compared against the analytic model.

use bench::rule;
use synchro_apps::{Application, ApplicationProfile};
use synchro_power::Technology;
use synchroscalar::mapper::{self, ExecutionReport, MapperOptions};
use synchroscalar::pipeline::{evaluate_application, EvaluationOptions};

fn run_application(
    name: &str,
    application: Application,
    reference: (
        synchroscalar::sdf::SdfGraph,
        synchroscalar::sdf::Mapping,
        f64,
    ),
) -> ExecutionReport {
    let (graph, mapping, rate) = reference;
    let options = MapperOptions {
        iterations: 8,
        iteration_rate_hz: rate,
        ..MapperOptions::default()
    };
    let mut compiled = mapper::compile(&graph, &mapping, &options).expect("compile");
    let execution = compiled.execute().expect("execute");

    let tech = Technology::isca2004();
    let profile = ApplicationProfile::of(application);
    let report = evaluate_application(&profile, &tech, &EvaluationOptions::default());
    let validation = mapper::cross_validate(&compiled, &execution, &report);

    println!(
        "{name}: {} columns, hyperperiod {} ticks",
        compiled.chip().columns(),
        compiled.hyperperiod()
    );
    rule(72);
    println!(
        "{:<22} {:>6} {:>8} {:>10} {:>10} {:>8}",
        "Column", "Div", "MHz", "Fired", "Expected", "dF %"
    );
    for (i, (plan, block)) in compiled.plans().iter().zip(&validation.blocks).enumerate() {
        println!(
            "{:<22} {:>6} {:>8.0} {:>10} {:>10} {:>8.2}",
            plan.name,
            plan.clock_divider,
            plan.required_frequency_mhz,
            execution.firing_counts[i],
            execution.expected_firings[i],
            block.frequency_error * 100.0
        );
    }
    rule(72);
    println!(
        "bus words: {} simulated vs {} predicted ({:.2}% off); firings exact: {}; agree within 10%: {}\n",
        execution.simulated_horizontal_words,
        execution.predicted_horizontal_words,
        validation.bus_traffic_error * 100.0,
        validation.firings_exact,
        validation.agrees_within(0.10)
    );
    execution
}

fn main() {
    let ddc_exec = run_application("DDC @ 64 MS/s", Application::Ddc, mapper::ddc_reference());
    let wifi_exec = run_application(
        "802.11a @ 54 Mbps",
        Application::Wifi80211a,
        mapper::wifi_reference(),
    );
    assert!(ddc_exec.firings_exact() && wifi_exec.firings_exact());
}
