"""The Lonely Planet case study.

"Other case studies have been based on the Lonely Planet and a computer
science faculty websites." — the same architecture, a different domain:
travel destinations, their regions and the activities they offer.  The
module provides the webspace schema, a synthetic site generator with
ground truth, and the site-specific re-engineering extractor the engine
plugs in — demonstrating the *flexibility* half of the paper's title:
nothing outside this module changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.media.images import make_photo
from repro.web.html import extract_text, find_by_class, find_by_id
from repro.web.site import SimulatedWebServer
from repro.webspace.documents import WebspaceDocument
from repro.webspace.objects import AssociationInstance, WebObject
from repro.webspace.schema import WebspaceSchema
from repro.xmlstore.model import Element

__all__ = ["lonely_planet_schema", "build_lonelyplanet_site",
           "reengineer_lonelyplanet", "DestinationRecord", "RegionRecord",
           "ActivityRecord", "LonelyPlanetGroundTruth"]


def lonely_planet_schema() -> WebspaceSchema:
    """Destinations, regions and activities."""
    schema = WebspaceSchema("lonely-planet")
    schema.add_class("Destination", {
        "name": "varchar",
        "country": "varchar",
        "description": "Hypertext",
        "picture": "Image",
    })
    schema.add_class("Region", {
        "name": "varchar",
        "climate": "varchar",
        "overview": "Hypertext",
    })
    schema.add_class("Activity", {
        "name": "varchar",
        "kind": "varchar",
        "guide": "Hypertext",
    })
    schema.add_association("Located_in", "Destination", "Region")
    schema.add_association("Offers", "Destination", "Activity")
    schema.validate()
    return schema


@dataclass
class RegionRecord:
    key: str
    name: str
    climate: str
    overview: str
    page_path: str = ""


@dataclass
class ActivityRecord:
    key: str
    name: str
    kind: str
    guide: str
    page_path: str = ""


@dataclass
class DestinationRecord:
    key: str
    name: str
    country: str
    description: str
    region_key: str
    activity_keys: tuple[str, ...] = ()
    page_path: str = ""
    picture_path: str = ""


@dataclass
class LonelyPlanetGroundTruth:
    regions: list[RegionRecord] = field(default_factory=list)
    activities: list[ActivityRecord] = field(default_factory=list)
    destinations: list[DestinationRecord] = field(default_factory=list)


_REGIONS = [
    ("south-east-asia", "South-East Asia", "tropical",
     "Monsoon seasons shape travel here; the shoulder months reward "
     "the patient with quiet temples and empty beaches."),
    ("southern-europe", "Southern Europe", "mediterranean",
     "Hot dry summers and mild winters; the coastal towns empty out in "
     "autumn when the light turns golden."),
    ("andes", "The Andes", "alpine",
     "Thin air and long ridgelines; acclimatise slowly before any "
     "serious trekking at altitude."),
    ("east-africa", "East Africa", "savanna",
     "The great migration crosses the plains between the long and "
     "short rains; dry season game viewing is unbeatable."),
]

_ACTIVITIES = [
    ("diving", "Diving", "water",
     "Reef walls, wrecks and whale sharks; bring your certification "
     "card and check the seasonal visibility tables."),
    ("trekking", "Trekking", "land",
     "Multi-day routes with hut or camp support; pack layers, the "
     "weather turns fast above the treeline."),
    ("street-food", "Street food tours", "culinary",
     "Night markets and hawker centres; follow the longest queue of "
     "locals and carry small notes."),
    ("safari", "Safari", "wildlife",
     "Dawn and dusk drives offer the best sightings; a good guide "
     "matters more than a fancy vehicle."),
    ("museums", "Museum walks", "culture",
     "World-class collections hide in small towns; many close on "
     "Mondays, plan around it."),
]

_DESTINATIONS = [
    ("bangkok", "Bangkok", "Thailand", "south-east-asia",
     ("street-food", "museums"),
     "A river city of temples and tuk-tuks where the street food alone "
     "justifies the flight; the khlong boats beat the traffic."),
    ("palawan", "Palawan", "Philippines", "south-east-asia",
     ("diving",),
     "Limestone karsts over turquoise lagoons; the island's dive sites "
     "and hidden beaches stay wonderfully undeveloped."),
    ("barcelona", "Barcelona", "Spain", "southern-europe",
     ("museums", "street-food"),
     "Modernist architecture, late dinners and a beach in the city; "
     "book the famous basilica weeks ahead."),
    ("cinque-terre", "Cinque Terre", "Italy", "southern-europe",
     ("trekking",),
     "Five villages stitched together by cliff paths and a slow train; "
     "the coastal trek between them is the whole point."),
    ("cusco", "Cusco", "Peru", "andes",
     ("trekking", "museums"),
     "The Inca capital at 3400 metres; spend days on cobbled lanes "
     "before the classic trek to the citadel."),
    ("patagonia", "Patagonia", "Chile", "andes",
     ("trekking",),
     "Granite towers, glacier lakes, and wind that rewrites your "
     "plans; the circuit trek is the southern hemisphere's finest."),
    ("serengeti", "Serengeti", "Tanzania", "east-africa",
     ("safari",),
     "Endless plains where the migration thunders past your camp; a "
     "safari here spoils you for anywhere else."),
    ("zanzibar", "Zanzibar", "Tanzania", "east-africa",
     ("diving", "street-food"),
     "Spice-scented alleys in Stone Town and reef diving off the east "
     "coast; dhows sail out at sunset."),
]


def _region_page(region: RegionRecord,
                 destinations: list[DestinationRecord]) -> str:
    links = "".join(f'<li><a href="/{d.page_path}">{d.name}</a></li>'
                    for d in destinations if d.region_key == region.key)
    return f"""<html>
<head><title>{region.name} - Lonely Planet</title></head>
<body>
<h1 class="region-name">{region.name}</h1>
<p class="climate">{region.climate}</p>
<div id="overview"><p>{region.overview}</p></div>
<ul class="destinations">{links}</ul>
</body></html>"""


def _activity_page(activity: ActivityRecord,
                   destinations: list[DestinationRecord]) -> str:
    links = "".join(f'<li><a href="/{d.page_path}">{d.name}</a></li>'
                    for d in destinations
                    if activity.key in d.activity_keys)
    return f"""<html>
<head><title>{activity.name} - Lonely Planet</title></head>
<body>
<h1 class="activity-name">{activity.name}</h1>
<p class="kind">{activity.kind}</p>
<div id="guide"><p>{activity.guide}</p></div>
<ul class="destinations">{links}</ul>
</body></html>"""


def _destination_page(destination: DestinationRecord,
                      regions: dict[str, RegionRecord],
                      activities: dict[str, ActivityRecord]) -> str:
    region = regions[destination.region_key]
    activity_links = "".join(
        f'<li><a class="offers" href="/{activities[key].page_path}">'
        f'{activities[key].name}</a></li>'
        for key in destination.activity_keys)
    return f"""<html>
<head><title>{destination.name} - Lonely Planet</title></head>
<body>
<h1 class="destination-name">{destination.name}</h1>
<img class="destination-picture" src="/{destination.picture_path}">
<p class="country">{destination.country}</p>
<p class="region"><a href="/{region.page_path}">{region.name}</a></p>
<div id="description"><p>{destination.description}</p></div>
<ul class="activities">{activity_links}</ul>
</body></html>"""


def build_lonelyplanet_site(seed: int = 2001
                            ) -> tuple[SimulatedWebServer,
                                       LonelyPlanetGroundTruth]:
    """Generate the site; deterministic."""
    truth = LonelyPlanetGroundTruth()
    truth.regions = [RegionRecord(k, n, c, o, f"regions/{k}.html")
                     for k, n, c, o in _REGIONS]
    truth.activities = [ActivityRecord(k, n, c, g, f"activities/{k}.html")
                        for k, n, c, g in _ACTIVITIES]
    truth.destinations = [
        DestinationRecord(key=k, name=n, country=country, description=desc,
                          region_key=region, activity_keys=acts,
                          page_path=f"destinations/{k}.html",
                          picture_path=f"img/{k}.jpg")
        for k, n, country, region, acts, desc in _DESTINATIONS]

    server = SimulatedWebServer("http://www.lonelyplanet.example")
    regions = {r.key: r for r in truth.regions}
    activities = {a.key: a for a in truth.activities}
    for region in truth.regions:
        server.add_page(region.page_path,
                        _region_page(region, truth.destinations))
    for activity in truth.activities:
        server.add_page(activity.page_path,
                        _activity_page(activity, truth.destinations))
    for destination in truth.destinations:
        server.add_page(destination.page_path,
                        _destination_page(destination, regions, activities))
        server.add_media(destination.picture_path, ("image", "jpeg"),
                         payload=make_photo(
                             server.absolute(destination.picture_path),
                             seed=seed + sum(destination.key.encode())))
    index_links = "".join(
        f'<li><a href="/{page}">{name}</a></li>'
        for page, name in
        [(r.page_path, r.name) for r in truth.regions]
        + [(a.page_path, a.name) for a in truth.activities])
    server.add_page("index.html", f"""<html>
<head><title>Lonely Planet</title></head>
<body><h1>Lonely Planet</h1><ul>{index_links}</ul></body></html>""")
    return server, truth


def _page_key(url: str) -> str:
    leaf = url.rstrip("/").rsplit("/", 1)[-1]
    return leaf[:-5] if leaf.endswith(".html") else leaf


def _linked_keys(page: Element, section: str) -> list[str]:
    keys = []
    for node in page.iter():
        if not isinstance(node, Element):
            continue
        href = node.attributes.get("href", "")
        if f"/{section}/" in href and href.endswith(".html"):
            keys.append(_page_key(href))
    return sorted(set(keys))


def reengineer_lonelyplanet(schema: WebspaceSchema,
                            pages: list[tuple[str, Element]]
                            ) -> list[WebspaceDocument]:
    """The site-specific extractor for the Lonely Planet webspace."""
    documents = []
    for url, page in pages:
        if find_by_class(page, "destination-name"):
            documents.append(_extract_destination(url, page))
        elif find_by_class(page, "region-name"):
            documents.append(_extract_region(url, page))
        elif find_by_class(page, "activity-name"):
            documents.append(_extract_activity(url, page))
    return documents


def _extract_destination(url: str, page: Element) -> WebspaceDocument:
    key = _page_key(url)
    obj = WebObject("Destination", key, {
        "name": extract_text(find_by_class(page, "destination-name")[0]),
        "country": extract_text(find_by_class(page, "country")[0]),
    })
    description = find_by_id(page, "description")
    if description is not None:
        obj.attributes["description"] = extract_text(description)
    pictures = find_by_class(page, "destination-picture")
    if pictures:
        src = pictures[0].attributes.get("src", "")
        domain = "/".join(url.split("/", 3)[:3])
        obj.attributes["picture"] = f"{domain}/{src.lstrip('/')}"
    document = WebspaceDocument(url)
    document.objects = [obj]
    for region_key in _linked_keys(page, "regions"):
        document.associations.append(
            AssociationInstance("Located_in", key, region_key))
    for activity_key in _linked_keys(page, "activities"):
        document.associations.append(
            AssociationInstance("Offers", key, activity_key))
    return document


def _extract_region(url: str, page: Element) -> WebspaceDocument:
    key = _page_key(url)
    obj = WebObject("Region", key, {
        "name": extract_text(find_by_class(page, "region-name")[0]),
        "climate": extract_text(find_by_class(page, "climate")[0]),
    })
    overview = find_by_id(page, "overview")
    if overview is not None:
        obj.attributes["overview"] = extract_text(overview)
    document = WebspaceDocument(url)
    document.objects = [obj]
    return document


def _extract_activity(url: str, page: Element) -> WebspaceDocument:
    key = _page_key(url)
    obj = WebObject("Activity", key, {
        "name": extract_text(find_by_class(page, "activity-name")[0]),
        "kind": extract_text(find_by_class(page, "kind")[0]),
    })
    guide = find_by_id(page, "guide")
    if guide is not None:
        obj.attributes["guide"] = extract_text(guide)
    document = WebspaceDocument(url)
    document.objects = [obj]
    return document
