//! Serving-runtime walkthrough: two tenants share one runtime, learn new
//! classes online, get their inference traffic coalesced into batches, hit
//! an energy budget, and survive a warm restart from an explicit-memory
//! snapshot.
//!
//! ```text
//! cargo run --release -p ofscil --example serving
//! ```

use ofscil::prelude::*;
use ofscil::serve::traffic;
use std::error::Error;

const IMAGE: usize = 8;

/// Colour-dominant synthetic image: classes a fresh backbone can already
/// separate, so the demo's predictions are meaningful.
fn class_image(class: usize, jitter: f32) -> Tensor {
    traffic::class_image(IMAGE, class, jitter)
}

fn support_batch(classes: &[usize], shots: usize) -> Batch {
    traffic::support_batch(IMAGE, classes, shots)
}

fn main() -> Result<(), Box<dyn Error>> {
    // -- Registry: two tenants, one with a strict energy budget ------------
    let mut rng = SeedRng::new(42);
    let registry = LearnerRegistry::new();
    registry.register(
        DeploymentSpec::new("wildlife-cam", (IMAGE, IMAGE)),
        OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
    )?;
    // The paper's point is an energy envelope per learned class; give this
    // tenant a budget that covers its first two classes (5 shots each on the
    // micro backbone ≈ 0.1 mJ/class) but not a third, and reject the excess.
    registry.register(
        DeploymentSpec::new("wearable", (IMAGE, IMAGE))
            .with_energy_budget(0.25, BudgetPolicy::Reject),
        OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
    )?;
    println!("registered deployments: {:?}", registry.names());

    let config = ServeConfig::default().with_max_batch(8);
    let snapshot = ServeRuntime::run(&registry, &config, |client| {
        // -- Online learning: single-pass EM updates over the wire ---------
        let learned = client.call(ServeRequest::LearnOnline {
            deployment: "wildlife-cam".into(),
            batch: support_batch(&[0, 1, 2], 5),
        })?;
        println!("wildlife-cam learned: {learned:?}");

        // -- Batched inference: submit a burst, then collect ---------------
        let pending: Vec<PendingResponse> = (0..16)
            .map(|i| {
                client.submit(ServeRequest::Infer {
                    deployment: "wildlife-cam".into(),
                    image: class_image(i % 3, 0.01),
                })
            })
            .collect();
        let mut correct = 0usize;
        let mut largest = 0usize;
        for (i, pending) in pending.into_iter().enumerate() {
            if let ServeResponse::Prediction {
                class,
                batched_with,
                ..
            } = pending.wait()?
            {
                correct += usize::from(class == i % 3);
                largest = largest.max(batched_with);
            }
        }
        println!("burst of 16 inferences: {correct}/16 correct, largest coalesced batch {largest}");

        // -- Energy-budget admission ---------------------------------------
        let outcome = client.call(ServeRequest::LearnOnline {
            deployment: "wearable".into(),
            batch: support_batch(&[7, 8], 5),
        });
        println!("wearable learn within budget: {}", outcome.is_ok());
        let outcome = client.call(ServeRequest::LearnOnline {
            deployment: "wearable".into(),
            batch: support_batch(&[9], 5),
        });
        match outcome {
            Err(ServeError::BudgetExhausted {
                required_mj,
                remaining_mj,
                ..
            }) => println!(
                "wearable learn over budget rejected: needs {required_mj:.3} mJ, \
                 {remaining_mj:.3} mJ left"
            ),
            other => println!("unexpected outcome: {other:?}"),
        }

        // -- Stats + snapshot ----------------------------------------------
        if let ServeResponse::Stats(stats) = client.call(ServeRequest::Stats {
            deployment: "wildlife-cam".into(),
        })? {
            println!(
                "wildlife-cam stats: {} classes, {} infers in {} batches (mean {:.1}), \
                 {:.3} mJ admitted",
                stats.classes,
                stats.infer_requests,
                stats.infer_batches,
                stats.mean_batch(),
                stats.energy_spent_mj
            );
        }
        match client.call(ServeRequest::Snapshot {
            deployment: "wildlife-cam".into(),
        })? {
            ServeResponse::Snapshot { bytes } => Ok(bytes),
            other => Err(ServeError::Execution(format!(
                "unexpected response {other:?}"
            ))),
        }
    })??;

    // -- Int8 conversion re-prices admission -------------------------------
    // Registration priced the fp32 model at fp32 byte traffic; converting
    // the deployment to int8 re-derives the price list, so the budget meter
    // charges the cheaper quantized rate from here on (the gap widens with
    // how DMA-bound the backbone is — 4x the bytes, same MACs).
    let fp32 = registry.pricing("wildlife-cam")?;
    let int8 = registry.convert_to_int8("wildlife-cam")?;
    println!("int8 conversion re-priced inference: {fp32:.4} -> {int8:.4} mJ per request");

    // -- Warm restart: a brand-new model picks up the snapshot -------------
    println!("snapshot: {} bytes", snapshot.len());
    let mut rng = SeedRng::new(7);
    registry.register(
        DeploymentSpec::new("wildlife-cam-replica", (IMAGE, IMAGE)),
        OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
    )?;
    let classes = registry.restore("wildlife-cam-replica", &snapshot)?;
    println!("replica restored {classes} classes from snapshot");
    ServeRuntime::run(&registry, &config, |client| {
        let response = client.call(ServeRequest::Infer {
            deployment: "wildlife-cam-replica".into(),
            image: class_image(1, 0.015),
        })?;
        println!("replica prediction: {response:?}");
        Ok::<(), ServeError>(())
    })??;
    Ok(())
}
