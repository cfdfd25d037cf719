"""Pattern detection parity — cases ported from the reference's tests
(patterns.rs:711-1650, validators.rs:268-433)."""

import pytest

from dataprof_ray.functions import patterns as P


def names(res):
    return [p.name for p in res]


class TestValidators:
    def test_iban(self):
        assert P.validate_iban("GB82WEST12345698765432")
        assert P.validate_iban("DE89370400440532013000")
        assert P.validate_iban("FR7630006000011234567890189")
        assert not P.validate_iban("DE89370400440532013001")
        assert not P.validate_iban("XX00")

    def test_codice_fiscale(self):
        assert P.validate_codice_fiscale("RSSMRA85M01H501Q")
        assert not P.validate_codice_fiscale("RSSMRA85M01H501A")

    def test_piva(self):
        assert P.validate_piva_it("12345678903")
        assert P.validate_piva_it("00000000000")
        assert not P.validate_piva_it("12345678901")

    def test_luhn(self):
        assert P.validate_credit_card("4532015112830366")
        assert P.validate_credit_card("4532-0151-1283-0366")
        assert not P.validate_credit_card("4532015112830367")
        assert not P.validate_credit_card("123")

    def test_ssn(self):
        assert P.validate_ssn_us("123-45-6789")
        assert not P.validate_ssn_us("000-45-6789")
        assert not P.validate_ssn_us("666-45-6789")
        assert not P.validate_ssn_us("900-45-6789")
        assert not P.validate_ssn_us("123-00-6789")
        assert not P.validate_ssn_us("123-45-0000")

    def test_cap(self):
        assert P.validate_cap_it("00118")
        assert P.validate_cap_it("98168")
        assert not P.validate_cap_it("99999")
        assert not P.validate_cap_it("00001")

    def test_coordinates(self):
        assert P.validate_coordinates("45.4642, 9.1900")
        assert P.validate_coordinates("45.4642,9.1900")
        assert not P.validate_coordinates("1.234,56")  # decimal-comma number
        assert not P.validate_coordinates("95.0, 10.0")  # lat out of range

    def test_ipv6(self):
        assert P.validate_ipv6("2001:db8::1")
        assert P.validate_ipv6("::1")
        assert not P.validate_ipv6("not:an:address:g")


class TestDetection:
    def test_email(self):
        res = P.detect_patterns(["user@example.com", "admin@test.org", "hello@world.com"])
        assert names(res) == ["Email"]
        assert res[0].match_count == 3
        assert res[0].match_percentage == 100.0

    def test_no_patterns(self):
        res = P.detect_patterns(["hello world", "some text", "plain words"])
        assert res == []

    def test_empty_and_whitespace(self):
        assert P.detect_patterns([]) == []
        assert P.detect_patterns(["", "  ", "\t"]) == []
        # whitespace around a value is trimmed before matching
        res = P.detect_patterns(["  user@example.com  ", "a@b.co", "c@d.org"])
        assert names(res) == ["Email"]

    def test_ipv4_survives_overlap(self):
        res = P.detect_patterns(["192.168.1.1", "10.0.0.1", "172.16.0.1"])
        assert names(res) == ["IPv4"]

    def test_cap_zip_ambiguity_without_locale(self):
        data = [str(n) for n in range(10000, 10020)]
        res = P.detect_patterns(data)
        cap = next(p for p in res if p.name == "CAP (IT)")
        zipc = next(p for p in res if p.name == "ZIP Code (US)")
        assert cap.confidence < 0.5
        assert zipc.confidence < 0.5

    def test_locale_boosts_and_suppresses(self):
        data = ["00118", "20121", "80100", "50121"]
        res_it = P.detect_patterns(data, locale="IT")
        assert "CAP (IT)" in names(res_it)
        assert "ZIP Code (US)" not in names(res_it)
        cap = next(p for p in res_it if p.name == "CAP (IT)")
        assert cap.confidence >= 0.5  # floor at >=80% match & >=0.8 validator

    def test_validator_zero_passrate_excludes(self):
        res = P.detect_patterns(["99999", "99998", "99997"], locale="IT")
        assert "CAP (IT)" not in names(res)
        res = P.detect_patterns(["12345678901", "12345678902", "99999999999", "11111111111"])
        assert "P.IVA (IT)" not in names(res)

    def test_validator_lowers_confidence(self):
        valid = ["GB82WEST12345698765432", "DE89370400440532013000", "FR7630006000011234567890189"]
        mixed = ["GB82WEST12345698765432", "DE89370400440532013001", "FR7630006000011234567890180"]
        pv = P.detect_patterns(valid)
        pm = P.detect_patterns(mixed)
        assert names(pv) == ["IBAN"] and names(pm) == ["IBAN"]
        assert pv[0].confidence > pm[0].confidence

    def test_confidence_low_for_singleton(self):
        data = ["user@example.com"] + ["random text"] * 29
        res = P.detect_patterns(data)
        assert names(res) == ["Email"]
        assert res[0].confidence < 0.1

    def test_sorted_descending(self):
        data = ["user@example.com", "a@b.co", "c@d.io", "192.168.0.1", "10.0.0.2", "8.8.8.8"] * 5
        res = P.detect_patterns(data)
        confs = [p.confidence for p in res]
        assert confs == sorted(confs, reverse=True)

    def test_uuid(self):
        res = P.detect_patterns(
            ["550e8400-e29b-41d4-a716-446655440000", "6ba7b810-9dad-11d1-80b4-00c04fd430c8"]
        )
        assert "UUID" in names(res)

    def test_codice_fiscale_detection(self):
        res = P.detect_patterns(["RSSMRA85M01H501Q"] * 3, locale="IT")
        assert names(res)[0] == "Codice Fiscale (IT)"

    def test_threshold_strictly_greater(self):
        # Email min_threshold 3.0: exactly 3% must NOT report
        data = ["u@e.com"] * 3 + ["text"] * 97
        res = P.detect_patterns(data)
        assert "Email" not in names(res)
        data = ["u@e.com"] * 4 + ["text"] * 96
        res = P.detect_patterns(data)
        assert "Email" in names(res)


class TestScrub:
    def test_scrub_email_phone(self):
        text = "contact john.doe@example.com or +1 555-123-4567 now"
        out, n = P.scrub_text(text)
        assert "<EMAIL>" in out
        assert "john.doe" not in out
        assert n >= 1

    def test_scrub_validator_gated(self):
        # invalid Luhn stays, valid Luhn is scrubbed
        out, n = P.scrub_text("card 4532015112830366 and bad 4532015112830367 .")
        assert "<CREDIT_CARD>" in out
        assert "4532015112830367" in out
        assert n == 1

    def test_scrub_iban_ssn(self):
        out, n = P.scrub_text("pay GB82WEST12345698765432 ssn 123-45-6789 end")
        assert "<IBAN>" in out and "<SSN>" in out
        assert n == 2

    def test_scrub_card_right_after_ssn(self):
        # the SSN's last group plus the card's first three groups form a
        # Luhn-failing card candidate; it must not hide the real card
        out, n = P.scrub_text("a 580-36-3894 4394 1443 0742 9110 b")
        assert (out, n) == ("a <SSN> <CREDIT_CARD> b", 2)

    def test_scrub_card_overlapping_rejected_candidate(self):
        assert not P.validate_credit_card("1234 4394 1443 0742")
        out, n = P.scrub_text("x 1234 4394 1443 0742 9110 y")
        assert (out, n) == ("x 1234 <CREDIT_CARD> y", 1)

    @pytest.mark.parametrize("name,rejected,valid", [
        ("IBAN", "DE89370400440532013001", "GB82WEST12345698765432"),
        ("CODICE_FISCALE", "RSSMRA85M01H501A", "RSSMRA85M01H501Q"),
        ("CREDIT_CARD", "4532015112830367", "4532015112830366"),
        ("SSN", "000-12-3456", "123-45-6789"),
    ])
    def test_scrub_rejected_candidate_next_to_valid(self, name, rejected,
                                                    valid):
        validator = {n: v for n, _rx, _c, v in P.SCRUB_DEFS}[name]
        assert not validator(rejected) and validator(valid)
        assert P.scrub_text(f"x {rejected} {valid} y") == (
            f"x {rejected} <{name}> y", 1)
        assert P.scrub_text(f"x {valid} {rejected} y") == (
            f"x <{name}> {rejected} y", 1)

    def test_scrub_idempotent_on_clean(self):
        text = "perfectly clean prose with no identifiers at all"
        out, n = P.scrub_text(text)
        assert out == text and n == 0

    def test_scrub_series(self):
        outs, counts = P.scrub_series(["a@b.com here", "clean", "ip 10.0.0.1 x"])
        assert outs[0] == "<EMAIL> here"
        assert outs[1] == "clean"
        assert "<IPV4>" in outs[2]
        assert counts.tolist() == [1, 0, 1]

    def test_scrub_deterministic(self):
        t = "mix a@b.com 550e8400-e29b-41d4-a716-446655440000 10.1.2.3"
        assert P.scrub_text(t) == P.scrub_text(t)


def test_list_patterns_surface():
    import dataprof_ray as dp

    allp = dp.list_patterns()
    assert len(allp) == 35
    assert {"name", "regex", "category", "locale", "min_threshold"} <= set(allp[0])
    it = dp.list_patterns("it")
    names = {p["name"] for p in it}
    assert "Codice Fiscale (IT)" in names
    assert "SSN (US)" not in names  # other locales suppressed
    assert "Email" in names  # universal patterns always included


def test_capabilities():
    import dataprof_ray as dp

    caps = dp.capabilities()
    assert caps["profiling"] and caps["patterns"] and caps["dedup"]
    assert caps["pandas"] is True and caps["duckdb"] is True
