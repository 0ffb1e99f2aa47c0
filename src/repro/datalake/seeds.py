"""Seed vocabularies: the raw material for synthetic lakes and the seed KB.

Everything the offline reproduction needs in place of real open-data content
lives here: entity vocabularies with aliases (so "USA" and "United States"
are knowably the same country), and thematic attribute generators.  The
synthetic-lake generator (:mod:`repro.datalake.synth`) samples from these;
the seed knowledge base (:mod:`repro.discovery.kb`) ingests them as typed
entities; entity resolution uses the alias groups as its gazetteer.
"""

from __future__ import annotations

__all__ = [
    "COUNTRIES",
    "CITIES",
    "VACCINES",
    "AGENCIES",
    "COMPANIES",
    "FIRST_NAMES",
    "LAST_NAMES",
    "US_STATES",
    "SPORTS",
    "CUISINES",
    "SCHOOL_SUBJECTS",
    "ALIAS_GROUPS",
]

#: country -> aliases (the first form is canonical).
COUNTRIES: dict[str, tuple[str, ...]] = {
    "United States": ("USA", "US", "United States of America"),
    "United Kingdom": ("UK", "Great Britain", "Britain"),
    "Germany": ("Deutschland", "DE"),
    "France": ("FR",),
    "Spain": ("ES", "España"),
    "Italy": ("IT", "Italia"),
    "Canada": ("CA",),
    "Mexico": ("MX", "México"),
    "Brazil": ("BR", "Brasil"),
    "Argentina": ("AR",),
    "India": ("IN", "Bharat"),
    "China": ("CN", "PRC"),
    "Japan": ("JP", "Nippon"),
    "South Korea": ("KR", "Korea", "Republic of Korea"),
    "Australia": ("AU",),
    "Netherlands": ("NL", "Holland"),
    "Switzerland": ("CH",),
    "Sweden": ("SE",),
    "Norway": ("NO",),
    "Poland": ("PL",),
    "Portugal": ("PT",),
    "Greece": ("GR", "Hellas"),
    "Turkey": ("TR", "Türkiye"),
    "Egypt": ("EG",),
    "South Africa": ("ZA", "RSA"),
    "Nigeria": ("NG",),
    "Kenya": ("KE",),
    "Russia": ("RU", "Russian Federation"),
    "Ukraine": ("UA",),
    "England": ("ENG",),
}

#: city -> country it belongs to (used to seed (city, country) relations).
CITIES: dict[str, str] = {
    "Berlin": "Germany",
    "Munich": "Germany",
    "Hamburg": "Germany",
    "Manchester": "England",
    "London": "England",
    "Liverpool": "England",
    "Barcelona": "Spain",
    "Madrid": "Spain",
    "Seville": "Spain",
    "Toronto": "Canada",
    "Vancouver": "Canada",
    "Montreal": "Canada",
    "Mexico City": "Mexico",
    "Guadalajara": "Mexico",
    "Boston": "United States",
    "New York": "United States",
    "Chicago": "United States",
    "Seattle": "United States",
    "San Francisco": "United States",
    "Austin": "United States",
    "New Delhi": "India",
    "Mumbai": "India",
    "Bangalore": "India",
    "Paris": "France",
    "Lyon": "France",
    "Rome": "Italy",
    "Milan": "Italy",
    "Tokyo": "Japan",
    "Osaka": "Japan",
    "Seoul": "South Korea",
    "Sydney": "Australia",
    "Melbourne": "Australia",
    "Amsterdam": "Netherlands",
    "Zurich": "Switzerland",
    "Stockholm": "Sweden",
    "Oslo": "Norway",
    "Warsaw": "Poland",
    "Lisbon": "Portugal",
    "Athens": "Greece",
    "Istanbul": "Turkey",
    "Cairo": "Egypt",
    "Cape Town": "South Africa",
    "Lagos": "Nigeria",
    "Nairobi": "Kenya",
    "Moscow": "Russia",
    "Kyiv": "Ukraine",
    "Sao Paulo": "Brazil",
    "Buenos Aires": "Argentina",
    "Beijing": "China",
    "Shanghai": "China",
}

#: vaccine -> (aliases, manufacturer country, typical approver).
VACCINES: dict[str, tuple[tuple[str, ...], str, str]] = {
    "Pfizer": (("Pfizer-BioNTech", "Comirnaty", "BNT162b2"), "United States", "FDA"),
    "Moderna": (("Spikevax", "mRNA-1273"), "United States", "FDA"),
    "Johnson & Johnson": (("J&J", "JnJ", "Janssen"), "United States", "FDA"),
    "AstraZeneca": (("Vaxzevria", "AZD1222", "Covishield"), "United Kingdom", "EMA"),
    "Novavax": (("Nuvaxovid", "NVX-CoV2373"), "United States", "FDA"),
    "Sinovac": (("CoronaVac",), "China", "NMPA"),
    "Sinopharm": (("BBIBP-CorV",), "China", "NMPA"),
    "Sputnik V": (("Gam-COVID-Vac",), "Russia", "MoH Russia"),
    "Covaxin": (("BBV152",), "India", "CDSCO"),
}

#: regulatory agency -> aliases.
AGENCIES: dict[str, tuple[str, ...]] = {
    "FDA": ("Food and Drug Administration", "US FDA"),
    "EMA": ("European Medicines Agency",),
    "MHRA": ("Medicines and Healthcare products Regulatory Agency",),
    "NMPA": ("National Medical Products Administration",),
    "CDSCO": ("Central Drugs Standard Control Organisation",),
    "WHO": ("World Health Organization",),
    "Health Canada": ("HC",),
    "TGA": ("Therapeutic Goods Administration",),
    "MoH Russia": ("Ministry of Health of Russia",),
}

#: company -> aliases (for business-themed synthetic tables).
COMPANIES: dict[str, tuple[str, ...]] = {
    "Acme Corporation": ("Acme Corp", "Acme"),
    "Globex": ("Globex Corporation",),
    "Initech": (),
    "Umbrella": ("Umbrella Corp",),
    "Stark Industries": ("Stark",),
    "Wayne Enterprises": ("Wayne",),
    "Wonka Industries": ("Wonka",),
    "Tyrell": ("Tyrell Corporation",),
    "Cyberdyne": ("Cyberdyne Systems",),
    "Hooli": (),
    "Pied Piper": (),
    "Vandelay": ("Vandelay Industries",),
}

FIRST_NAMES: tuple[str, ...] = (
    "Alice", "Bob", "Carol", "David", "Erin", "Frank", "Grace", "Hector",
    "Irene", "James", "Karen", "Luis", "Maria", "Nikhil", "Olivia", "Pedro",
    "Quinn", "Rosa", "Samir", "Tanya", "Uma", "Victor", "Wendy", "Xavier",
    "Yara", "Zoe",
)

LAST_NAMES: tuple[str, ...] = (
    "Anderson", "Brown", "Chen", "Diaz", "Evans", "Fischer", "Garcia",
    "Hansen", "Ivanov", "Johnson", "Kim", "Lopez", "Miller", "Nguyen",
    "O'Brien", "Patel", "Quist", "Rossi", "Smith", "Tanaka", "Ueda",
    "Vargas", "Williams", "Xu", "Yamamoto", "Zhang",
)

US_STATES: dict[str, tuple[str, ...]] = {
    "Massachusetts": ("MA",),
    "New York": ("NY",),
    "California": ("CA",),
    "Texas": ("TX",),
    "Washington": ("WA",),
    "Illinois": ("IL",),
    "Florida": ("FL",),
    "Oregon": ("OR",),
    "Colorado": ("CO",),
    "Georgia": ("GA",),
}

SPORTS: tuple[str, ...] = (
    "Soccer", "Basketball", "Tennis", "Cricket", "Baseball", "Hockey",
    "Rugby", "Golf", "Swimming", "Cycling",
)

CUISINES: tuple[str, ...] = (
    "Italian", "Mexican", "Japanese", "Indian", "Thai", "French",
    "Ethiopian", "Greek", "Korean", "Vietnamese",
)

SCHOOL_SUBJECTS: tuple[str, ...] = (
    "Mathematics", "Physics", "Chemistry", "Biology", "History",
    "Geography", "Literature", "Computer Science", "Economics", "Art",
)


def _alias_groups() -> list[tuple[str, ...]]:
    groups: list[tuple[str, ...]] = []
    for canonical, aliases in COUNTRIES.items():
        groups.append((canonical, *aliases))
    for canonical, (aliases, _, _) in VACCINES.items():
        groups.append((canonical, *aliases))
    for canonical, aliases in AGENCIES.items():
        groups.append((canonical, *aliases))
    for canonical, aliases in COMPANIES.items():
        if aliases:
            groups.append((canonical, *aliases))
    for canonical, aliases in US_STATES.items():
        groups.append((canonical, *aliases))
    return groups


#: Alias groups: each tuple lists surface forms of one real-world entity,
#: canonical form first.  This is the ER gazetteer.
ALIAS_GROUPS: list[tuple[str, ...]] = _alias_groups()
