"""No package module reads the process environment: every input comes
from the command line or the config file, so a run cannot change with a
variable the user never sees."""

from owners import matches, module_name, package_owners

ENVIRONMENT = module_name({"os"}, {"environ", "environb", "getenv",
                                   "getenvb"})


def test_no_package_module_reads_the_environment():
    assert package_owners(ENVIRONMENT) == set()


def test_the_check_sees_environment_reads():
    source = ("import os\nfrom os import getenv, path\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\n"
              "c = os.path.join('p', 'q')\n")
    assert matches(ENVIRONMENT, source) == [
        (2, "<module>"), (3, "<module>"), (4, "<module>")]
