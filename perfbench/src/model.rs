//! Seed derivation and bitwise model comparison shared by the workloads.

use plinius_darknet::Network;

/// Derives an independent sub-seed from the run seed (SplitMix64 finalizer), so
/// model init, dataset, key, crash RNG and serve inputs each get their own stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words.
pub fn fnv(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Whether two networks hold bit-identical parameters in every trainable tensor.
pub fn same_params(a: &Network, b: &Network) -> bool {
    let mut ta = a.layers().iter().filter_map(|l| l.param_views()).flatten();
    let mut tb = b.layers().iter().filter_map(|l| l.param_views()).flatten();
    loop {
        match (ta.next(), tb.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) => {
                let equal = x.data.len() == y.data.len()
                    && x.data
                        .iter()
                        .zip(y.data)
                        .all(|(u, v)| u.to_bits() == v.to_bits());
                if !equal {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Hash of every parameter bit of a network.
pub fn params_hash(n: &Network) -> u64 {
    n.layers()
        .iter()
        .filter_map(|l| l.param_views())
        .flatten()
        .flat_map(|v| v.data.iter())
        .fold(FNV_OFFSET, |h, x| fnv(h, u64::from(x.to_bits())))
}

/// `L<i>_<kind>` labels of a network's layers, e.g. `L0_conv`.
pub fn layer_labels(n: &Network) -> Vec<String> {
    use plinius_darknet::LayerKind;
    n.layers()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let kind = match l.kind() {
                LayerKind::Convolutional => "conv",
                LayerKind::MaxPool => "maxpool",
                LayerKind::Connected => "connected",
                LayerKind::Softmax => "softmax",
            };
            format!("L{i}_{kind}")
        })
        .collect()
}
