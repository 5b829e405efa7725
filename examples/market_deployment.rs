//! Full deployment pipeline: a developer publishes self-describing service
//! scripts to a file-backed market; an edge gateway downloads, caches, and
//! provisions them; a client consumes the service under an advisory policy
//! (paper Section IV.A and IV.C).
//!
//! Run with: `cargo run --example market_deployment`

use std::sync::Arc;
use std::time::Duration;

use qce_runtime::{
    AdvisoryPolicy, Client, ClientError, FileMarket, Gateway, GatewayConfig, Market, MsSpec,
    Request, ServiceScript, SimulatedProvider,
};
use qce_strategy::{Qos, Requirements};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Developer side: publish scripts to the market -------------------
    let market_dir = std::env::temp_dir().join("qce-example-market");
    let _ = std::fs::remove_dir_all(&market_dir);
    let publisher = FileMarket::new(&market_dir);

    let mut fire = ServiceScript::new(
        "detect-fire",
        vec![
            MsSpec {
                name: "cameraSmoke".into(),
                capability: "camera-smoke".into(),
                prior: Qos::new(50.0, 10.0, 0.8)?,
            },
            MsSpec {
                name: "smokeSensor".into(),
                capability: "smoke-sensor".into(),
                prior: Qos::new(20.0, 5.0, 0.7)?,
            },
            MsSpec {
                name: "flameSensor".into(),
                capability: "flame-sensor".into(),
                prior: Qos::new(30.0, 8.0, 0.75)?,
            },
        ],
        Requirements::new(100.0, 40.0, 0.95)?,
    );
    // The developer pins a MOLE-style default for the bootstrap slot.
    fire.default_strategy = Some("smokeSensor-cameraSmoke-flameSensor".to_string());
    fire.slot_size = 20;
    publisher.publish(&fire)?;

    let ambitious = ServiceScript::new(
        "impossible-service",
        vec![MsSpec {
            name: "flaky".into(),
            capability: "flaky".into(),
            prior: Qos::new(10.0, 5.0, 0.5)?,
        }],
        // Requirements no single 50%-reliable microservice can meet.
        Requirements::new(5.0, 2.0, 0.999)?,
    );
    publisher.publish(&ambitious)?;

    println!("Published scripts: {:?}", publisher.service_ids());
    println!(
        "Script JSON on disk:\n{}\n",
        std::fs::read_to_string(market_dir.join("detect-fire.json"))?
            .lines()
            .take(12)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // --- Edge side: gateway + devices ------------------------------------
    let market = FileMarket::new(&market_dir);
    let gateway = Arc::new(Gateway::new(Box::new(market), GatewayConfig::default()));

    for (device, capability, cost, ms, reliability) in [
        ("lobby-cam", "camera-smoke", 50.0, 10u64, 0.8),
        ("hall-detector", "smoke-sensor", 20.0, 5, 0.7),
        ("kitchen-unit", "flame-sensor", 30.0, 8, 0.75),
        ("battery-node", "flaky", 10.0, 5, 0.5),
    ] {
        gateway.registry().register(
            SimulatedProvider::builder(format!("{device}/{capability}"), capability)
                .cost(cost)
                .latency(Duration::from_millis(ms))
                .reliability(reliability)
                .seed(42)
                .build(),
        );
    }

    // --- Client side ------------------------------------------------------
    let client = Client::new(Arc::clone(&gateway));
    println!("== detect-fire over three time slots ==");
    for slot in 0..3 {
        let mut ok = 0;
        for _ in 0..20 {
            if client.invoke("detect-fire")?.success {
                ok += 1;
            }
        }
        println!(
            "  slot {slot}: strategy {:<42} {ok}/20 succeeded",
            gateway.current_strategy("detect-fire").unwrap_or_default()
        );
    }

    // The strict client aborts when the gateway advises that requirements
    // cannot be met (Section IV.C's client decision).
    let strict = Client::new(Arc::clone(&gateway)).with_policy(AdvisoryPolicy::Abort);
    // Warm through slot 0 so the generator produces an estimate+advisory.
    for _ in 0..101 {
        let _ = gateway.submit(Request::new("impossible-service"));
    }
    match strict.invoke("impossible-service") {
        Err(ClientError::Rejected(rejected)) => {
            println!("\nimpossible-service rejected as expected:\n  {rejected}");
        }
        other => println!("\nunexpected outcome for impossible-service: {other:?}"),
    }

    // Market caching: the gateway fetched each script exactly once.
    println!("\nGateway service cache kept cloud traffic to one fetch per script.");
    std::fs::remove_dir_all(&market_dir)?;
    Ok(())
}
