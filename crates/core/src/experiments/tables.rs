//! Table experiments: Table 1 (operator survey) and Tables 2–3 (dataset
//! inventory).

use crate::artifact::Artifact;
use crate::world::World;
use dns::survey;

/// Table 1: the operator survey (reproduced data) plus the growth
/// trajectory it explains.
pub(crate) fn tab1(_world: &World) -> Vec<Artifact> {
    let mut rows: Vec<Vec<String>> = survey::PAST_GROWTH
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.reason),
                "past growth".into(),
                r.organizations.to_string(),
            ]
        })
        .collect();
    rows.extend(survey::FUTURE_TRENDS.iter().map(|r| {
        vec![
            format!("{:?}", r.trend),
            "future trend".into(),
            r.organizations.to_string(),
        ]
    }));
    let growth_rows: Vec<Vec<String>> = survey::growth_trajectory()
        .into_iter()
        .map(|(year, sites)| vec![year.to_string(), sites.to_string()])
        .collect();
    vec![
        Artifact::Table {
            id: "tab1".into(),
            title: format!(
                "Root operator survey ({} of {} orgs responded) — Table 1",
                survey::ORGS_RESPONDED,
                survey::ORGS_TOTAL
            ),
            header: vec!["answer".into(), "question".into(), "organizations".into()],
            rows,
        },
        Artifact::Table {
            id: "tab1-growth".into(),
            title: "Root DNS total site count, 2016–2021 (§4.1)".into(),
            header: vec!["year".into(), "total sites".into()],
            rows: growth_rows,
        },
    ]
}

/// Tables 2–3: what each (synthesized) dataset contains in *this* world,
/// alongside its paper-scale counterpart.
pub(crate) fn tab23(world: &World) -> Vec<Artifact> {
    let n_ditl = world.ditl.rows.len();
    let ditl_queries = world.ditl.total_queries_per_day();
    let n_logs = world.server_logs.len();
    let n_client = world.client_measurements.rows.len();
    let n_probes = world.atlas.probes.len();
    let probe_ases = world.atlas.as_coverage();
    let n_recursives = world.population.recursives.len();
    let users = world.population.total_users();
    let inventory = vec![
        vec![
            "DITL packet traces".into(),
            format!("{ditl_queries:.2e} queries/day over {n_ditl} aggregated rows"),
            "51.9e9 queries/day, 2 days, 50,300 ASes".into(),
        ],
        vec![
            "CDN server-side logs".into(),
            format!("{n_logs} ⟨ring, region, AS⟩ rows"),
            "11.0e9 connections, 59,000 ASes".into(),
        ],
        vec![
            "CDN client-side measurements".into(),
            format!("{n_client} ⟨ring, region, AS⟩ rows"),
            "50.0e7 fetches, 10,600 ASes".into(),
        ],
        vec![
            "CDN user counts".into(),
            format!("{} recursive IPs", world.cdn_user_counts.by_ip.len()),
            "1 month, 39,000 ASes".into(),
        ],
        vec![
            "APNIC user counts".into(),
            format!("{} ASes", world.apnic_user_counts.by_asn.len()),
            "daily, 23,000 ASes".into(),
        ],
        vec![
            "RIPE Atlas".into(),
            format!("{n_probes} probes in {probe_ases} ASes"),
            "10,000 measurements, 3,300 ASes".into(),
        ],
        vec![
            "Ground truth population".into(),
            format!("{users:.2e} users via {n_recursives} recursives"),
            "over a billion users".into(),
        ],
    ];
    let strengths = vec![
        vec![
            "DITL".into(),
            "global coverage".into(),
            "noisy; only above the recursive".into(),
        ],
        vec![
            "Server-side logs".into(),
            "client→front-end mappings, global".into(),
            "population varies across rings".into(),
        ],
        vec![
            "Client-side measurements".into(),
            "fixed population across rings".into(),
            "front-end unknown; smaller scale".into(),
        ],
        vec![
            "CDN user counts".into(),
            "precise per-/24".into(),
            "undercounts (NAT, blind spots)".into(),
        ],
        vec![
            "APNIC user counts".into(),
            "public, global".into(),
            "coarse per-AS; unvalidated".into(),
        ],
        vec![
            "RIPE Atlas".into(),
            "reproducible; historic".into(),
            "limited, biased coverage".into(),
        ],
        vec![
            "Local resolver traces".into(),
            "precise, below the recursive".into(),
            "tiny populations".into(),
        ],
    ];
    vec![
        Artifact::Table {
            id: "tab2".into(),
            title: "Dataset inventory: this world vs the paper (Table 2)".into(),
            header: vec!["dataset".into(), "this reproduction".into(), "paper".into()],
            rows: inventory,
        },
        Artifact::Table {
            id: "tab3".into(),
            title: "Dataset strengths and weaknesses (Table 3)".into(),
            header: vec!["dataset".into(), "strengths".into(), "weaknesses".into()],
            rows: strengths,
        },
    ]
}
