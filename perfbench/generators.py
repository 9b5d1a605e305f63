"""Seeded input generators for the benchmark workloads.

Each generator takes the seed as an argument and returns plain data
(observations, operation tuples, site descriptions); the program under
test only ever receives the generated inputs.  The same seed always
yields the same sequence.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.records import Observation

#: vendor OUIs used for generated MACs (a subset of netsim's table, so
#: ``MacPrefix`` vendor sweeps select a real slice of the site)
VENDOR_OUIS = (
    "08:00:20", "00:00:0c", "08:00:2b", "02:60:8c",
    "00:00:a7", "00:dd:00", "00:00:c0", "08:00:5a",
)


def _mac(rng: random.Random, oui: Optional[str] = None) -> str:
    oui = oui or rng.choice(VENDOR_OUIS)
    tail = rng.getrandbits(24)
    return f"{oui}:{tail >> 16 & 0xFF:02x}:{tail >> 8 & 0xFF:02x}:{tail & 0xFF:02x}"


def probe_key(ip: str) -> str:
    """The change-feed key a probe's interface record shows up under:
    ``ip:`` plus the zero-padded dotted quad (``JournalChanges.keys``)."""
    return "ip:" + ".".join(f"{int(part):03d}" for part in ip.split("."))


def probe_keys_in(keys, probes: Dict[str, object]) -> List[str]:
    """The probe keys among a feed delta's *keys*."""
    return [key for key in keys if key in probes]


#: the classes :func:`classify_stream` sorts an observation stream into
STREAM_CLASSES = ("repeat", "new_host", "mac_change", "mask_update", "resight", "no_ip")


def classify_stream(observations) -> Dict[str, int]:
    """Count an explorer observation stream by what each sighting is.

    In stream order, the first class that applies:

    * ``repeat`` — the same (mac, ip, source, quality) as the previous
      observation, which a ``BatchingSink`` coalesces;
    * ``no_ip`` — carries no IP (a MAC- or name-only sighting);
    * ``new_host`` — an IP not seen before;
    * ``mac_change`` — a known IP with a MAC other than the last seen;
    * ``mask_update`` — a known IP with a subnet mask other than the
      last seen;
    * ``resight`` — anything else: a known IP seen again.
    """
    counts = dict.fromkeys(STREAM_CLASSES, 0)
    macs: Dict[str, Optional[str]] = {}
    masks: Dict[str, Optional[str]] = {}
    previous = None
    for obs in observations:
        key = (obs.mac, obs.ip, obs.source, obs.quality)
        if key == previous:
            kind = "repeat"
        elif obs.ip is None:
            kind = "no_ip"
        elif obs.ip not in macs:
            kind = "new_host"
        elif obs.mac is not None and macs[obs.ip] not in (None, obs.mac):
            kind = "mac_change"
        elif obs.subnet_mask is not None and masks[obs.ip] != obs.subnet_mask:
            kind = "mask_update"
        else:
            kind = "resight"
        counts[kind] += 1
        previous = key
        if obs.ip is not None:
            if obs.mac is not None or obs.ip not in macs:
                macs[obs.ip] = obs.mac
            if obs.subnet_mask is not None or obs.ip not in masks:
                masks[obs.ip] = obs.subnet_mask
    return counts


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

#: the campus is the paper's (CampusProfile defaults); the seed picks
#: one of this many traffic mixes, whose expected discovery results
#: are recorded in expected_campaign.json
CAMPAIGN_VARIANTS = 8


def campaign_plan(seed: int) -> Dict[str, object]:
    variant = seed % CAMPAIGN_VARIANTS
    rng = random.Random(f"campaign-{variant}")
    return {
        "variant": variant,
        "traffic_seed": rng.randrange(1 << 30),
        "cs_uptime": 0.9,
        "horizon": 300.0,
        "ripwatch_s": 65.0,
        "arpwatch_s": 200.0,
        "path_pairs": 24,
        "path_rng_seed": rng.randrange(1 << 30),
    }


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

INGEST_SOURCE = "bench-ingest"

#: shares of the campaign's explorer stream by :func:`classify_stream`
#: class, pooled over the 8 campaign variants (5 149 observations;
#: ``run.py --record-campaign`` prints them again).  The explorers send
#: no consecutive repeats (ARPwatch re-reports a pair only after its
#: refresh interval) and no MAC changes within the campaign horizon, so
#: the ingest stream has neither.
CAMPAIGN_STREAM_MIX = (
    ("new_host", 0.325),
    ("mask_update", 0.245),
    ("resight", 0.430),
)
#: what a new-host or re-sighting observation carries besides its IP,
#: as shares of that class in the campaign stream (variant 0): a MAC
#: (ARPwatch, RIPwatch, EtherHostProbe), a DNS name (DNS), or the IP
#: alone (pings, Traceroute)
CAMPAIGN_FIELD_MIX = {
    "new_host": (("mac", 0.258), ("name", 0.378), ("ip", 0.364)),
    "resight": (("mac", 0.279), ("name", 0.170), ("ip", 0.551)),
}
#: every PROBE_EVERY-th new host is a probe, timed to the change feed
#: (about one observation in 40)
PROBE_EVERY = 13
SUBNET_MASK = "255.255.255.0"


def _pick(rng: random.Random, weighted) -> str:
    return rng.choices([name for name, _ in weighted], [w for _, w in weighted])[0]


def ingest_stream(seed: int) -> Iterator[Tuple[Observation, Optional[str]]]:
    """An endless explorer-shaped stream of ``(observation, probe_ip)``.

    Each observation is drawn from :data:`CAMPAIGN_STREAM_MIX`, the mix
    the campaign's explorers send: a new host, a known host's subnet
    mask learned for the first time (IP and mask, as the SubnetMasks
    module reports it), or a known host sighted again; new hosts and
    re-sightings carry a MAC, a DNS name or the IP alone in the shares
    of :data:`CAMPAIGN_FIELD_MIX`.  Every :data:`PROBE_EVERY`-th new
    host has its ``probe_ip`` set, for the freshness measurement; a
    probe is never sighted again, so its record changes exactly once.
    """
    rng = random.Random(seed)
    macs: List[str] = []
    #: hosts that may be sighted again (every host but the probes, whose
    #: record must change exactly once) and those without a mask yet
    known: List[int] = []
    unmasked: List[int] = []

    def ip_of(host: int) -> str:
        return f"10.{1 + host // 62_500}.{host // 250 % 250}.{host % 250 + 1}"

    def sighting(host: int, kind: str) -> Observation:
        carries = _pick(rng, CAMPAIGN_FIELD_MIX[kind])
        return Observation(
            source=INGEST_SOURCE, ip=ip_of(host),
            mac=macs[host] if carries == "mac" else None,
            dns_name=f"h{host}.bench.example" if carries == "name" else None,
        )

    while True:
        kind = _pick(rng, CAMPAIGN_STREAM_MIX)
        if kind == "mask_update" and not unmasked:
            kind = "new_host"
        if kind == "resight" and not known:
            kind = "new_host"
        if kind == "new_host":
            host = len(macs)
            macs.append(_mac(rng))
            if len(macs) % PROBE_EVERY == 0:
                yield sighting(host, kind), ip_of(host)
                continue
            known.append(host)
            unmasked.append(host)
            yield sighting(host, kind), None
        elif kind == "mask_update":
            slot = rng.randrange(len(unmasked))
            host = unmasked[slot]
            unmasked[slot] = unmasked[-1]
            unmasked.pop()
            yield Observation(source=INGEST_SOURCE, ip=ip_of(host),
                              subnet_mask=SUBNET_MASK), None
        else:
            yield sighting(known[rng.randrange(len(known))], kind), None


# ----------------------------------------------------------------------
# sites for inquiry and fleet
# ----------------------------------------------------------------------

SITE_SOURCE = "bench-site"


def site(seed: int, *, interfaces: int, subnets: int) -> Dict[str, object]:
    """A preload: *interfaces* hosts spread over *subnets* /24s
    (``10.100.0.0/24`` upward), and a chain of gateways ``gw-i`` joining
    subnet ``i`` to ``i + 1``."""
    rng = random.Random(seed)
    keys = [f"10.{100 + s // 250}.{s % 250}.0/24" for s in range(subnets)]
    per_subnet = interfaces // subnets
    observations = []
    for s in range(subnets):
        prefix = keys[s].rsplit(".", 1)[0]
        for h in range(per_subnet):
            observations.append(
                Observation(
                    source=SITE_SOURCE, ip=f"{prefix}.{h + 1}", mac=_mac(rng),
                    subnet_mask="255.255.255.0",
                )
            )
    rng.shuffle(observations)
    gateways = [(f"gw-{s}", (keys[s], keys[s + 1])) for s in range(subnets - 1)]
    return {"subnets": keys, "observations": observations, "gateways": gateways,
            "per_subnet": per_subnet}


def zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


#: Assumed weights: no read traffic is recorded in the repository to
#: derive them from.  They were set so that InSubnet is about half of
#: the predicate queries (cache hits stay well under half, so the query
#: median is a served query) and vendor sweeps (replies of ~1 250
#: records) are a few percent of queries, enough to set the query tail.
INQUIRY_MIX = (
    ("in_subnet", 0.22),
    ("mac_prefix", 0.01),
    ("stale", 0.16),
    ("by_ip", 0.30),
    ("counts", 0.06),
    ("path", 0.12),
    ("impact", 0.13),
)


def _deck(rng: random.Random, weighted) -> Iterator[str]:
    """Kinds in shuffled blocks of 100 holding exactly ``weight * 100``
    of each, so every seed sends the same mix (a vendor sweep costs as
    much as dozens of lookups, and independent draws would let the
    count of sweeps alone move the read rate)."""
    block = [name for name, weight in weighted for _ in range(round(weight * 100))]
    while True:
        rng.shuffle(block)
        yield from block


def inquiry_ops(seed: int, subnets: List[str], per_subnet: int,
                gateways: List[str]) -> Iterator[Tuple]:
    """Endless read mix against the inquiry site.

    Subnet choice is Zipf-skewed over a seed-permuted order, so a small
    QueryCache holds the hot subnets and misses on the tail.
    """
    rng = random.Random(seed)
    hot = list(subnets)
    rng.shuffle(hot)
    weights = zipf_weights(len(hot))
    for kind in _deck(rng, INQUIRY_MIX):
        if kind == "in_subnet":
            yield kind, rng.choices(hot, weights)[0]
        elif kind == "mac_prefix":
            yield kind, rng.choice(VENDOR_OUIS)
        elif kind == "stale":
            yield kind, rng.choice(subnets)
        elif kind == "by_ip":
            prefix = rng.choice(subnets).rsplit(".", 1)[0]
            yield kind, f"{prefix}.{rng.randint(1, per_subnet)}"
        elif kind == "counts":
            yield kind, None
        elif kind == "path":
            a, b = rng.sample(subnets, 2)
            yield kind, (a, b)
        else:
            target = rng.choice(gateways) if rng.random() < 0.5 else rng.choice(subnets)
            yield kind, target


def trickle_writes(seed: int, subnets: List[str], gateways: List[str]) -> Iterator[Tuple]:
    """The inquiry write trickle: host sightings above the preloaded
    range (``.200``-``.249``; a repeat is a re-sighting with a new MAC)
    and, every fifth write, a gateway gaining a link to another subnet."""
    rng = random.Random(seed ^ 0x5EED)
    serial = 0
    while True:
        serial += 1
        if serial % 5 == 0:
            yield "link", (rng.choice(gateways), rng.choice(subnets))
        else:
            prefix = rng.choice(subnets).rsplit(".", 1)[0]
            ip = f"{prefix}.{rng.randint(200, 249)}"
            yield "observe", Observation(source="bench-trickle", ip=ip, mac=_mac(rng))


#: Assumed weights, as for INQUIRY_MIX: about a third routed writes, the
#: rest reads, each federated read class represented.
FLEET_MIX = (
    ("observe_batch", 0.30),
    ("in_subnet", 0.30),
    ("by_ip", 0.20),
    ("path", 0.10),
    ("impact", 0.10),
)
FLEET_BATCH = 16


def fleet_ops(seed: int, subnets: List[str], per_subnet: int,
              gateways: List[str]) -> Iterator[Tuple]:
    """Endless fleet mix: routed observation batches (each carrying one
    probe with a fresh IP), scatter ``InSubnet`` queries, routed by-IP
    lookups and federated ``path``/``impact``."""
    rng = random.Random(seed)
    names = [name for name, _ in FLEET_MIX]
    mix = [weight for _, weight in FLEET_MIX]
    probes = 0
    while True:
        kind = rng.choices(names, mix)[0]
        if kind == "observe_batch":
            batch = []
            for _ in range(FLEET_BATCH - 1):
                prefix = rng.choice(subnets).rsplit(".", 1)[0]
                batch.append(Observation(
                    source="bench-fleet",
                    ip=f"{prefix}.{rng.randint(1, per_subnet)}", mac=None,
                ))
            probes += 1
            prefix = subnets[probes % len(subnets)].rsplit(".", 1)[0]
            probe_ip = f"{prefix}.{200 + probes // len(subnets) % 54}"
            batch.append(Observation(source="bench-fleet", ip=probe_ip, mac=_mac(rng)))
            yield kind, batch
        elif kind == "in_subnet":
            yield kind, rng.choice(subnets)
        elif kind == "by_ip":
            prefix = rng.choice(subnets).rsplit(".", 1)[0]
            yield kind, f"{prefix}.{rng.randint(1, per_subnet)}"
        elif kind == "path":
            a, b = rng.sample(subnets, 2)
            yield kind, (a, b)
        else:
            yield kind, rng.choice(gateways) if rng.random() < 0.5 else rng.choice(subnets)
