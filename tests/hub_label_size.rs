//! A size bound on the hub labeling of the benchmark's city.
//!
//! Label size is what the hub order buys: it sets the build time, the
//! memory, and the cost of every cold shortest-path query and
//! `many_to_many` row.  A degree-descending order on this 1 764-node grid
//! city produced 33.4 MB of labels; the nested-dissection order produces
//! about 4.2 MB.  A later order change that gives that back fails here
//! instead of surfacing only as a slower benchmark.

use structride::datagen::{synthetic_city_network, CityProfile};
use structride::roadnet::HubLabels;

/// A quarter of the degree order's 33.4 MB.
const MAX_LABEL_BYTES: usize = 8_000_000;

#[test]
fn city_hub_labels_stay_under_a_quarter_of_the_degree_order() {
    let net = synthetic_city_network(&CityProfile::NycLike.network_params(4.0, 42));
    assert_eq!(net.node_count(), 1_764);
    let bytes = HubLabels::build(&net).approx_bytes();
    assert!(
        bytes <= MAX_LABEL_BYTES,
        "hub labels of the city take {bytes} bytes, more than {MAX_LABEL_BYTES}"
    );
}
