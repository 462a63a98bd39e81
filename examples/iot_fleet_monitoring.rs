//! IoT fleet monitoring: the resource-constrained scenario that motivates
//! the paper (Section I cites IoT malware detection on communication
//! graphs). A hub ingests device communication graphs in small batches,
//! learns online with GraphHD's retraining extension, and keeps working
//! when its associative memory suffers bit-level faults.
//!
//! Run with: `cargo run --release --example iot_fleet_monitoring`

use graphcore::{generate, Graph};
use graphhd::{noise, GraphHdConfig, GraphHdModel};
use prng::{WordRng, Xoshiro256PlusPlus};

/// Benign traffic: sparse peer-to-peer chatter (Erdős–Rényi).
fn benign(rng: &mut Xoshiro256PlusPlus) -> Graph {
    let n = 24 + rng.usize_below(16);
    generate::erdos_renyi(n, 0.08, rng).expect("valid probability")
}

/// Botnet traffic: command-and-control hubs (preferential attachment).
fn botnet(rng: &mut Xoshiro256PlusPlus) -> Graph {
    let n = 24 + rng.usize_below(16);
    generate::barabasi_albert(n, 2, rng).expect("valid attachment")
}

fn batch(rng: &mut Xoshiro256PlusPlus, size: usize) -> (Vec<Graph>, Vec<u32>) {
    let mut graphs = Vec::with_capacity(size);
    let mut labels = Vec::with_capacity(size);
    for _ in 0..size {
        if rng.bernoulli(0.5) {
            graphs.push(benign(rng));
            labels.push(0);
        } else {
            graphs.push(botnet(rng));
            labels.push(1);
        }
    }
    (graphs, labels)
}

fn accuracy(model: &GraphHdModel, graphs: &[Graph], labels: &[u32]) -> f64 {
    let predictions = model.predict_all(graphs);
    predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count() as f64
        / labels.len() as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);

    // Cold start: a small bootstrap sample labeled by the security team.
    let (boot_graphs, boot_labels) = batch(&mut rng, 30);
    let mut model = GraphHdModel::fit(GraphHdConfig::default(), &boot_graphs, &boot_labels, 2)?;
    println!("bootstrap model trained on {} graphs", boot_graphs.len());

    // Online operation: batches stream in; the hub encodes once and
    // retrains only on its mistakes (cheap integer updates — the reason
    // HDC suits edge hardware).
    for round in 1..=5 {
        let (graphs, labels) = batch(&mut rng, 40);
        let before = accuracy(&model, &graphs, &labels);
        let encodings = model.encoder().encode_all(&graphs);
        let report = model.retrain(&encodings, &labels, 3);
        let after = accuracy(&model, &graphs, &labels);
        println!(
            "round {round}: accuracy {before:.2} -> {after:.2} \
             (mistakes per epoch: {:?})",
            report.epoch_errors
        );
        assert!(report.converged(), "round {round} did not converge");
        assert!(after >= before, "round {round}: retraining lost accuracy");
    }

    // Fault injection: flip 10% of the class-vector bits, as if the
    // device memory degraded, and check the model still works.
    let (eval_graphs, eval_labels) = batch(&mut rng, 100);
    let clean = accuracy(&model, &eval_graphs, &eval_labels);
    let noisy = noise::accuracy_under_model_noise(&model, &eval_graphs, &eval_labels, 0.10, 7);
    println!("\nfresh-traffic accuracy: clean {clean:.2}, with 10% flipped bits {noisy:.2}");
    assert!(
        noisy >= clean - 0.1,
        "10% flipped bits cost more than 0.1 accuracy"
    );
    println!("holographic representations degrade gracefully — the HDC robustness claim.");
    Ok(())
}
