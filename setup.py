"""Build script: compiles the optional fast kernel when Cython is available.

The package is fully functional without the extension (a pure-Python kernel
is selected at import time), so any build failure here downgrades to a
pure-Python install instead of aborting.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing or broken
            print(f"warning: building the fast kernel failed ({exc}); "
                  "falling back to the pure-Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: {ext.name} failed to compile ({exc}); "
                  "falling back to the pure-Python kernel")


ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "setchoice._core._fast",
                ["src/setchoice/_core/_fast.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    print("warning: Cython not available; installing with the "
          "pure-Python kernel only")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
