//! The paper's motivating example (Section II.A): the `detectFire` service
//! queried in *dissimilar* edge environments.
//!
//! The same five equivalent microservices are deployed in two environments:
//!
//! * an **office building** — flame sensors and a small edge server;
//! * a **campground** — a solar-powered Raspberry Pi and bystanders'
//!   phones.
//!
//! A fixed MOLE-style strategy delivers wildly different QoS across the
//! two; the generator synthesizes an environment-specific strategy for
//! each and restores consistency. Executions are validated with the
//! virtual-time Monte-Carlo simulator.
//!
//! Run with: `cargo run --example detect_fire`

use std::num::NonZeroU32;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qce_sim::{
    environment_from_placements, simulate, Availability, Device, DeviceKind, LatencyDistribution,
    MsModel,
};
use qce_strategy::estimate::estimate;
use qce_strategy::{Generator, MsId, Requirements, UtilityIndex};

/// The five equivalent fire-detection microservices with their *intrinsic*
/// QoS (before device hosting effects).
fn base_microservices() -> Vec<MsModel> {
    let spec: [(f64, f64, f64); 5] = [
        // (cost, latency on a desktop-class device, reliability)
        (50.0, 50.0, 0.90),   // camera smoke analysis
        (100.0, 100.0, 0.85), // smoke sensor
        (150.0, 150.0, 0.90), // flame sensor
        (200.0, 200.0, 0.85), // CO/CO2 gas sensor
        (250.0, 250.0, 0.95), // temperature-change detection
    ];
    spec.iter()
        .enumerate()
        .map(|(i, &(c, l, r))| {
            MsModel::new(MsId(i), r, LatencyDistribution::Constant(l), c)
                .expect("valid model parameters")
        })
        .collect()
}

fn office_environment() -> qce_sim::Environment {
    let ms = base_microservices();
    let placements = vec![
        (
            Device::new(
                "office-edge-server",
                DeviceKind::EdgeServer,
                Availability::AlwaysOn,
            ),
            ms[0].clone(),
        ),
        (
            Device::new(
                "hallway-smoke-unit",
                DeviceKind::Desktop,
                Availability::AlwaysOn,
            ),
            ms[1].clone(),
        ),
        (
            Device::new(
                "ceiling-flame-unit",
                DeviceKind::Desktop,
                Availability::AlwaysOn,
            ),
            ms[2].clone(),
        ),
        (
            Device::new("hvac-gas-unit", DeviceKind::Desktop, Availability::AlwaysOn),
            ms[3].clone(),
        ),
        (
            Device::new("thermostat", DeviceKind::EdgeServer, Availability::AlwaysOn),
            ms[4].clone(),
        ),
    ];
    environment_from_placements(&placements).expect("valid placements")
}

fn campground_environment() -> qce_sim::Environment {
    let ms = base_microservices();
    let placements = vec![
        (
            // Camera analysis runs on a solar Raspberry Pi that duty-cycles.
            Device::new(
                "solar-pi",
                DeviceKind::RaspberryPi,
                Availability::DutyCycle { on: 3, off: 1 },
            ),
            ms[0].clone(),
        ),
        (
            // Smoke detection on a hiker's phone that may wander off.
            Device::new(
                "hiker-phone",
                DeviceKind::Mobile,
                Availability::Probabilistic { up: 0.7 },
            ),
            ms[1].clone(),
        ),
        (
            Device::new(
                "ranger-tablet",
                DeviceKind::Mobile,
                Availability::Probabilistic { up: 0.85 },
            ),
            ms[2].clone(),
        ),
        (
            Device::new(
                "kinetic-gas-node",
                DeviceKind::EnergyHarvesting,
                Availability::DutyCycle { on: 1, off: 1 },
            ),
            ms[3].clone(),
        ),
        (
            Device::new(
                "weather-station",
                DeviceKind::RaspberryPi,
                Availability::AlwaysOn,
            ),
            ms[4].clone(),
        ),
    ];
    environment_from_placements(&placements).expect("valid placements")
}

fn report(name: &str, env: &qce_sim::Environment) -> Result<(), Box<dyn std::error::Error>> {
    // The detectFire service wants: cost ≤ 300, latency ≤ 400 ms,
    // reliability ≥ 99%.
    let requirements = Requirements::new(300.0, 400.0, 0.99)?;
    let table = env.mean_qos_table();
    let ids = table.ids();
    let generator = Generator::default();

    println!("== {name} ==");
    for (id, qos) in table.iter() {
        println!("  microservice {id}: {qos}");
    }

    // The fixed baseline is what a MOLE script pins across ALL
    // environments: fail-over in the developer's priority order a-b-c-d-e.
    let fixed = qce_strategy::enumerate::failover(&ids)?;
    let fixed_qos = estimate(&fixed, &table)?;
    let fixed_utility = UtilityIndex::default().utility(&fixed_qos, &requirements);
    let generated = generator.generate(&table, &ids, &requirements)?;

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let fixed_measured = simulate(&fixed, env, NonZeroU32::new(5_000).unwrap(), &mut rng)?;
    let generated_measured = simulate(
        &generated.strategy,
        env,
        NonZeroU32::new(5_000).unwrap(),
        &mut rng,
    )?;

    println!("  fixed MOLE fail-over : {fixed} (U={fixed_utility:+.3}, {fixed_qos})");
    println!(
        "      measured: cost {:.1}, latency {:.1}, reliability {:.1}%",
        fixed_measured.mean_cost,
        fixed_measured.mean_latency,
        fixed_measured.success_rate * 100.0
    );
    println!("  generated            : {generated}");
    println!(
        "      measured: cost {:.1}, latency {:.1}, reliability {:.1}%",
        generated_measured.mean_cost,
        generated_measured.mean_latency,
        generated_measured.success_rate * 100.0
    );
    println!(
        "  utility: fixed {fixed_utility:+.3} vs generated {:+.3}\n",
        generated.utility
    );
    assert!(generated.utility >= fixed_utility);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("detectFire across dissimilar edge environments\n");
    report(
        "Office building (wall-powered, fast devices)",
        &office_environment(),
    )?;
    report(
        "Campground (solar Pi, drifting phones)",
        &campground_environment(),
    )?;
    println!(
        "A single predefined strategy cannot fit both environments; the\n\
         generator tailors one per environment from the same service script."
    );
    Ok(())
}
